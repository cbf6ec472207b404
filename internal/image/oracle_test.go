package image

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/profile"
)

// blurOracle is the direct tap loop: every output pixel of each pass
// sums k[i+r]·p(x+i) over its 2r+1 taps through the hooked clamped
// accessor, with the two integer ops of each MAC and the store charged
// per pixel. GaussianBlur must match it byte for byte and count for
// count.
func blurOracle(g *Gray, sigma float64) *Gray {
	k := gaussKernel(nil, sigma)
	r := len(k) / 2
	wsum := 0
	for _, w := range k {
		wsum += w
	}
	pass := func(src *Gray, dx, dy int) *Gray {
		dst := NewGray(src.W, src.H)
		for y := 0; y < src.H; y++ {
			for x := 0; x < src.W; x++ {
				acc := 0
				for i := -r; i <= r; i++ {
					acc += k[i+r] * int(src.AtClamped(x+i*dx, y+i*dy))
					profile.AddI(2)
				}
				profile.AddM(1)
				dst.Pix[y*src.W+x] = uint8(acc / wsum)
			}
		}
		return dst
	}
	return pass(pass(g, 1, 0), 0, 1)
}

func randGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	rng.Read(g.Pix)
	return g
}

// checkBlur fails t unless GaussianBlur and blurOracle agree on g.
func checkBlur(t *testing.T, g *Gray, sigma float64) {
	t.Helper()
	var got, want *Gray
	gotC := profile.Collect(func() { got = g.GaussianBlur(sigma) })
	wantC := profile.Collect(func() { want = blurOracle(g, sigma) })
	if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatalf("%dx%d σ=%g: blur bytes differ from the tap loop", g.W, g.H, sigma)
	}
	if gotC != wantC {
		t.Fatalf("%dx%d σ=%g: counts %+v, tap loop %+v", g.W, g.H, sigma, gotC, wantC)
	}
}

func TestGaussianBlurMatchesTapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		w, h  int
		sigma float64
	}{
		{"zero", 0, 0, 1.6},
		{"zero-width", 0, 7, 1.6},
		{"zero-height", 7, 0, 1.6},
		{"1x1", 1, 1, 1.6},
		{"1x1-large-sigma", 1, 1, 6},
		{"row", 40, 1, 1.2},
		{"column", 1, 40, 1.2},
		{"w-below-2r", 5, 30, 1.6},   // r = 4
		{"h-below-2r", 30, 5, 1.6},   // r = 4
		{"w-equals-2r", 8, 8, 1.6},   // r = 4
		{"w-equals-2r+1", 9, 9, 1.6}, // one interior pixel
		{"sigma-clamped", 17, 13, 0.1},
		{"sigma-zero", 17, 13, 0},
		{"sigma-negative", 17, 13, -2},
		{"large-sigma", 31, 23, 8},
		{"large-sigma-small-image", 3, 50, 12},
		{"huge-sigma-64-bit-divide", 3, 2, 30000}, // 255·wsum > 2³²
		{"sift-octave", 160, 120, 1.6},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkBlur(t, randGray(rng, c.w, c.h), c.sigma)
		})
	}
}

func TestGaussianBlurMatchesTapLoopRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		w, h := rng.Intn(70), rng.Intn(50)
		checkBlur(t, randGray(rng, w, h), 0.1+4*rng.Float64())
	}
}

// FuzzGaussianBlur draws the image size, its pixels and σ from the
// fuzzer; the blur must equal the tap loop in bytes and counts.
func FuzzGaussianBlur(f *testing.F) {
	f.Add(uint8(16), uint8(12), uint16(1600), int64(1))
	f.Add(uint8(1), uint8(1), uint16(100), int64(2))
	f.Add(uint8(0), uint8(9), uint16(4000), int64(3))
	f.Add(uint8(7), uint8(3), uint16(9000), int64(4))
	f.Fuzz(func(t *testing.T, w, h uint8, milliSigma uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		// Sizes up to 96×96 and σ up to 10 keep one case under a
		// millisecond while still reaching every border regime.
		g := randGray(rng, int(w)%97, int(h)%97)
		checkBlur(t, g, float64(milliSigma%10001)/1000)
	})
}

// BenchmarkGaussianBlur times one SIFT-octave-sized blur (160×120,
// σ = 1.6) on an unprofiled goroutine.
func BenchmarkGaussianBlur(b *testing.B) {
	g := randGray(rand.New(rand.NewSource(3)), 160, 120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.GaussianBlur(1.6)
	}
}

// downsampleHooked is Downsample2x through the hooked accessors: four
// At loads, four integer ops and one Set per output pixel.
func downsampleHooked(g *Gray) *Gray {
	out := NewGray(g.W/2, g.H/2)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			s := int(g.At(2*x, 2*y)) + int(g.At(2*x+1, 2*y)) +
				int(g.At(2*x, 2*y+1)) + int(g.At(2*x+1, 2*y+1))
			profile.AddI(4)
			out.Set(x, y, uint8(s/4))
		}
	}
	return out
}

func TestDownsample2xMatchesHooked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sz := range [][2]int{{0, 0}, {1, 1}, {1, 7}, {2, 2}, {3, 5}, {7, 3}, {17, 13}, {160, 120}, {81, 59}} {
		g := randGray(rng, sz[0], sz[1])
		var got, want *Gray
		gotC := profile.Collect(func() { got = g.Downsample2x() })
		wantC := profile.Collect(func() { want = downsampleHooked(g) })
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d: Downsample2x bytes differ from the hooked loop", g.W, g.H)
		}
		if gotC != wantC {
			t.Fatalf("%dx%d: counts %+v, hooked %+v", g.W, g.H, gotC, wantC)
		}
	}
}

func TestQuietAccessorsMatchHooked(t *testing.T) {
	g := randGray(rand.New(rand.NewSource(5)), 9, 7)
	for y := -2; y < g.H+2; y++ {
		for x := -2; x < g.W+2; x++ {
			if g.AtClampedQuiet(x, y) != g.AtClamped(x, y) {
				t.Fatalf("AtClampedQuiet(%d,%d) differs", x, y)
			}
			fx, fy := float64(x)*0.7+0.3, float64(y)*0.9+0.1
			if g.BilinearQuiet(fx, fy) != g.Bilinear(fx, fy) {
				t.Fatalf("BilinearQuiet(%g,%g) differs", fx, fy)
			}
			if x >= 1 && y >= 1 && x < g.W-1 && y < g.H-1 {
				gx, gy := g.GradientAt(x, y)
				qx, qy := g.GradientAtQuiet(x, y)
				if gx != qx || gy != qy {
					t.Fatalf("GradientAtQuiet(%d,%d) differs", x, y)
				}
			}
		}
	}
	if c := profile.Collect(func() {
		g.AtClampedQuiet(-1, 3)
		g.BilinearQuiet(2.5, 3.5)
		g.GradientAtQuiet(3, 3)
	}); c != (profile.Counts{}) {
		t.Fatalf("quiet accessors charged %+v", c)
	}
}
