package flow

// The hooked bodies of the flow kernels, kept as oracles: each charges
// the profiler per sample or per block row, as the kernels did before
// their window mixes were charged in bulk. The tests below require the
// closed-form kernels to return the same results and record the same
// counts.

import (
	"testing"

	"repro/internal/dataset"
	img "repro/internal/image"
	"repro/internal/profile"
)

func lucasKanadeHooked(a, b *img.Gray, x, y float64, cfg LKConfig) Result {
	pyrA := a.Pyramid(cfg.Levels)
	pyrB := b.Pyramid(cfg.Levels)
	levels := len(pyrA)
	if len(pyrB) < levels {
		levels = len(pyrB)
	}

	scale := float64(int(1) << (levels - 1))
	gx := x / scale
	gy := y / scale
	var dx, dy float64

	for l := levels - 1; l >= 0; l-- {
		la, lb := pyrA[l], pyrB[l]
		r := cfg.Window
		// Spatial gradient matrix over the window on A.
		var gxx, gxy, gyy float64
		type grad struct{ gx, gy float64 }
		grads := make([]grad, 0, (2*r+1)*(2*r+1))
		for wy := -r; wy <= r; wy++ {
			for wx := -r; wx <= r; wx++ {
				px := gx + float64(wx)
				py := gy + float64(wy)
				ix1 := la.Bilinear(px+1, py)
				ix0 := la.Bilinear(px-1, py)
				iy1 := la.Bilinear(px, py+1)
				iy0 := la.Bilinear(px, py-1)
				ggx := (ix1 - ix0) / 2
				ggy := (iy1 - iy0) / 2
				gxx += ggx * ggx
				gxy += ggx * ggy
				gyy += ggy * ggy
				grads = append(grads, grad{ggx, ggy})
				profile.AddF(8)
			}
		}
		det := gxx*gyy - gxy*gxy
		profile.AddF(4)
		if det < 1e-6 {
			return Result{}
		}
		inv00 := gyy / det
		inv01 := -gxy / det
		inv11 := gxx / det

		for it := 0; it < cfg.Iterations; it++ {
			var bx, by float64
			gi := 0
			for wy := -r; wy <= r; wy++ {
				for wx := -r; wx <= r; wx++ {
					px := gx + float64(wx)
					py := gy + float64(wy)
					diff := lb.Bilinear(px+dx, py+dy) - la.Bilinear(px, py)
					g := grads[gi]
					gi++
					bx += diff * g.gx
					by += diff * g.gy
					profile.AddF(5)
				}
			}
			sx := -(inv00*bx + inv01*by)
			sy := -(inv01*bx + inv11*by)
			dx += sx
			dy += sy
			profile.AddF(10)
			profile.AddB(1)
			if sx*sx+sy*sy < cfg.Epsilon*cfg.Epsilon {
				break
			}
		}
		if l > 0 {
			gx *= 2
			gy *= 2
			dx *= 2
			dy *= 2
		}
	}
	return Result{DX: dx, DY: dy, Valid: true}
}

func imageInterpolationHooked(a, b *img.Gray, cx, cy int, cfg IIConfig) Result {
	r := cfg.Window
	d := cfg.Shift
	if cx-r-d < 0 || cy-r-d < 0 || cx+r+d >= a.W || cy+r+d >= a.H {
		return Result{}
	}
	// Accumulate normal equations for I2-I0 = u·fx + v·fy with
	// fx = (I0(x-Δ) - I0(x+Δ))/(2Δ), fy likewise vertically.
	var a11, a12, a22, b1, b2 float64
	for wy := -r; wy <= r; wy++ {
		for wx := -r; wx <= r; wx++ {
			x, y := cx+wx, cy+wy
			fx := (float64(a.At(x-d, y)) - float64(a.At(x+d, y))) / float64(2*d)
			fy := (float64(a.At(x, y-d)) - float64(a.At(x, y+d))) / float64(2*d)
			dt := float64(b.At(x, y)) - float64(a.At(x, y))
			a11 += fx * fx
			a12 += fx * fy
			a22 += fy * fy
			b1 += fx * dt
			b2 += fy * dt
			profile.AddI(12)
		}
	}
	det := a11*a22 - a12*a12
	profile.AddF(10)
	if det < 1e-9 {
		return Result{}
	}
	u := (a22*b1 - a12*b2) / det
	v := (a11*b2 - a12*b1) / det
	// The interpolation weights directly estimate the displacement:
	// B(x) ≈ A(x) + u·(A(x−Δ)−A(x+Δ))/(2Δ) ≈ A(x−u), i.e. A's content
	// appears at x+u in B.
	return Result{DX: u, DY: v, Valid: true}
}

func blockMatchHooked(a, b *img.Gray, cx, cy int, cfg BBConfig, vectorized bool) Result {
	r := cfg.Block
	s := cfg.Search
	if cx-r-s < 0 || cy-r-s < 0 || cx+r+s >= a.W || cy+r+s >= a.H {
		return Result{}
	}
	best := int(^uint(0) >> 1)
	bx, by := 0, 0
	for dy := -s; dy <= s; dy++ {
		for dx := -s; dx <= s; dx++ {
			sad := 0
			for wy := -r; wy <= r; wy++ {
				rowSum := 0
				for wx := -r; wx <= r; wx++ {
					pa := int(a.Pix[(cy+wy)*a.W+cx+wx])
					pb := int(b.Pix[(cy+wy+dy)*b.W+cx+wx+dx])
					d := pa - pb
					if d < 0 {
						d = -d
					}
					rowSum += d
				}
				sad += rowSum
				w := uint64(2*r + 1)
				if vectorized {
					// USADA8 handles four byte lanes per instruction:
					// one load pair + one accumulate per 4 pixels.
					profile.AddI((w + 3) / 4)
					profile.AddM((w + 3) / 4 * 2)
				} else {
					profile.AddI(3 * w)
					profile.AddM(2 * w)
				}
			}
			profile.AddB(1)
			if sad < best {
				best = sad
				bx, by = dx, dy
			}
		}
	}
	return Result{DX: float64(bx), DY: float64(by), Valid: true}
}

func TestFlowKernelsMatchHooked(t *testing.T) {
	p := dataset.GenFlowPair(dataset.Midd, 80, 80, 1.6, -0.7, 5)
	flat := img.NewGray(80, 80) // det < ε: the early returns
	check := func(what string, run, hooked func() Result) {
		t.Helper()
		var got, want Result
		gotC := profile.Collect(func() { got = run() })
		wantC := profile.Collect(func() { want = hooked() })
		if got != want {
			t.Fatalf("%s: %+v, hooked %+v", what, got, want)
		}
		if gotC != wantC {
			t.Fatalf("%s: counts %+v, hooked %+v", what, gotC, wantC)
		}
	}
	for _, a := range []*img.Gray{p.A, flat} {
		for _, pt := range [][2]int{{40, 40}, {20, 55}, {3, 3}, {76, 40}} {
			x, y := pt[0], pt[1]
			lk := DefaultLKConfig()
			check("LucasKanade", func() Result {
				return LucasKanade(a, p.B, float64(x), float64(y), lk)
			}, func() Result {
				return lucasKanadeHooked(a, p.B, float64(x), float64(y), lk)
			})
			ii := DefaultIIConfig()
			check("ImageInterpolation", func() Result {
				return ImageInterpolation(a, p.B, x, y, ii)
			}, func() Result {
				return imageInterpolationHooked(a, p.B, x, y, ii)
			})
			for _, vec := range []bool{false, true} {
				bb := DefaultBBConfig()
				check("blockMatch", func() Result {
					return blockMatch(a, p.B, x, y, bb, vec)
				}, func() Result {
					return blockMatchHooked(a, p.B, x, y, bb, vec)
				})
			}
		}
	}
}
