// Package flow implements the optical-flow kernels of the suite: lkof
// (iterative pyramidal Lucas-Kanade), iiof (Srinivasan's image
// interpolation method), bbof (brute-force block matching with
// sum-of-absolute-differences), and its SIMD-modeled variant bbof-vec
// whose inner loop maps onto the Cortex-M USADA8 instruction.
//
// All kernels estimate the displacement of a patch centered on a tracked
// feature between two frames, and all scale with the patch size — the
// scaling knob Table II exposes.
package flow

import (
	img "repro/internal/image"
	"repro/internal/profile"
)

// Result is an estimated 2D displacement of frame B relative to frame A.
type Result struct {
	DX, DY float64
	Valid  bool
}

// LKConfig parameterizes the pyramidal Lucas-Kanade tracker.
type LKConfig struct {
	Window     int // half-size of the tracking window
	Levels     int // pyramid levels
	Iterations int // Newton iterations per level
	Epsilon    float64
}

// DefaultLKConfig matches the suite's 80×80 flow configuration.
func DefaultLKConfig() LKConfig {
	return LKConfig{Window: 7, Levels: 3, Iterations: 10, Epsilon: 0.01}
}

// LucasKanade is the lkof kernel: pyramid construction plus iterative
// gradient-descent alignment at each level — the most computationally
// demanding flow kernel (pyramids, spatial and temporal gradients).
//
// The window loops sample hook-free; cost tallies each window's mix —
// bilinear samples at M4 + I12 each plus the loop's float ops — and is
// charged once, on whichever return ends the kernel.
func LucasKanade(a, b *img.Gray, x, y float64, cfg LKConfig) Result {
	var cost profile.Counts
	defer func() { profile.AddCounts(cost) }()
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
				ix1 := la.BilinearQuiet(px+1, py)
				ix0 := la.BilinearQuiet(px-1, py)
				iy1 := la.BilinearQuiet(px, py+1)
				iy0 := la.BilinearQuiet(px, py-1)
				ggx := (ix1 - ix0) / 2
				ggy := (iy1 - iy0) / 2
				gxx += ggx * ggx
				gxy += ggx * ggy
				gyy += ggy * ggy
				grads = append(grads, grad{ggx, ggy})
			}
		}
		samples := uint64(len(grads))
		// Four samples and eight float ops per pixel, four for det.
		cost.Add(profile.Counts{M: 16 * samples, I: 48 * samples, F: 8*samples + 4})
		det := gxx*gyy - gxy*gxy
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
					diff := lb.BilinearQuiet(px+dx, py+dy) - la.BilinearQuiet(px, py)
					g := grads[gi]
					gi++
					bx += diff * g.gx
					by += diff * g.gy
				}
			}
			// Two samples and five float ops per pixel; the update
			// costs ten float ops and the convergence test a branch.
			cost.Add(profile.Counts{M: 8 * samples, I: 24 * samples, F: 5*samples + 10, B: 1})
			sx := -(inv00*bx + inv01*by)
			sy := -(inv01*bx + inv11*by)
			dx += sx
			dy += sy
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

// IIConfig parameterizes the image-interpolation kernel.
type IIConfig struct {
	Window int // half-size of the analysis window
	Shift  int // reference shift Δ in pixels
}

// DefaultIIConfig matches the suite's flow configuration: a generous
// analysis window — the method needs one, and it puts iiof between lkof
// and bbof on the cost spectrum, as in Fig 3b.
func DefaultIIConfig() IIConfig { return IIConfig{Window: 20, Shift: 2} }

// ImageInterpolation is the iiof kernel (Srinivasan [63]): the second
// frame is modeled as a linear interpolation between ±Δ-shifted copies
// of the first, and the two interpolation weights — the flow — come from
// one 2×2 least-squares solve. Integer accumulation, one small solve:
// the cheap middle ground of the flow spectrum. Each window pixel costs
// six loads and twelve integer ops, charged for the whole window at
// once.
func ImageInterpolation(a, b *img.Gray, cx, cy int, cfg IIConfig) Result {
	r := cfg.Window
	d := cfg.Shift
	if cx-r-d < 0 || cy-r-d < 0 || cx+r+d >= a.W || cy+r+d >= a.H {
		return Result{}
	}
	// Accumulate normal equations for I2-I0 = u·fx + v·fy with
	// fx = (I0(x-Δ) - I0(x+Δ))/(2Δ), fy likewise vertically.
	var a11, a12, a22, b1, b2 float64
	at := func(g *img.Gray, x, y int) float64 { return float64(g.Pix[y*g.W+x]) }
	for wy := -r; wy <= r; wy++ {
		for wx := -r; wx <= r; wx++ {
			x, y := cx+wx, cy+wy
			fx := (at(a, x-d, y) - at(a, x+d, y)) / float64(2*d)
			fy := (at(a, x, y-d) - at(a, x, y+d)) / float64(2*d)
			dt := at(b, x, y) - at(a, x, y)
			a11 += fx * fx
			a12 += fx * fy
			a22 += fy * fy
			b1 += fx * dt
			b2 += fy * dt
		}
	}
	n := uint64(2*r+1) * uint64(2*r+1)
	profile.AddCounts(profile.Counts{M: 6 * n, I: 12 * n, F: 10})
	det := a11*a22 - a12*a12
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

// BBConfig parameterizes block matching.
type BBConfig struct {
	Block  int // half-size of the matching block
	Search int // search radius in pixels
}

// DefaultBBConfig matches the suite's flow configuration: a compact 7×7
// block and ±3 search — block matching sits at the cheap end of the flow
// spectrum (Fig 3b).
func DefaultBBConfig() BBConfig { return BBConfig{Block: 3, Search: 3} }

// BlockMatch is the bbof kernel: exhaustive sum-of-absolute-differences
// search over a ±Search window — pure 8-bit integer work.
func BlockMatch(a, b *img.Gray, cx, cy int, cfg BBConfig) Result {
	return blockMatch(a, b, cx, cy, cfg, false)
}

// BlockMatchVec is the bbof-vec variant of Table VI: the same search
// with the inner SAD row modeled on the 4-lane USADA8 instruction, which
// cuts the per-pixel integer and memory op count by ~4x.
func BlockMatchVec(a, b *img.Gray, cx, cy int, cfg BBConfig) Result {
	return blockMatch(a, b, cx, cy, cfg, true)
}

func blockMatch(a, b *img.Gray, cx, cy int, cfg BBConfig, vectorized bool) Result {
	r := cfg.Block
	s := cfg.Search
	if cx-r-s < 0 || cy-r-s < 0 || cx+r+s >= a.W || cy+r+s >= a.H {
		return Result{}
	}
	best := int(^uint(0) >> 1)
	bx, by := 0, 0
	// Each block row costs 3 integer ops and 2 loads per pixel, or with
	// USADA8 one accumulate and one load pair per four pixels; each
	// candidate one compare. The whole search is charged once.
	w := uint64(2*r + 1)
	rowCost := profile.Counts{I: 3 * w, M: 2 * w}
	if vectorized {
		rowCost = profile.Counts{I: (w + 3) / 4, M: (w + 3) / 4 * 2}
	}
	cands := uint64(2*s+1) * uint64(2*s+1)
	profile.AddCounts(profile.Counts{
		I: cands * w * rowCost.I, M: cands * w * rowCost.M, B: cands,
	})
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
			}
			if sad < best {
				best = sad
				bx, by = dx, dy
			}
		}
	}
	return Result{DX: float64(bx), DY: float64(by), Valid: true}
}
