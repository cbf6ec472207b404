package image_test

import (
	"math"
	"testing"
	"testing/quick"

	img "repro/internal/image"
	"repro/internal/profile"
)

func gradient(w, h int) *img.Gray {
	g := img.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Pix[y*w+x] = uint8((x * 255) / (w - 1))
		}
	}
	return g
}

func TestAtSetClamped(t *testing.T) {
	g := img.NewGray(8, 8)
	g.Set(3, 4, 200)
	if g.At(3, 4) != 200 {
		t.Fatal("At/Set broken")
	}
	g.Set(0, 0, 10)
	g.Set(7, 7, 20)
	if g.AtClamped(-5, -5) != 10 {
		t.Errorf("AtClamped(-5,-5) = %d", g.AtClamped(-5, -5))
	}
	if g.AtClamped(100, 100) != 20 {
		t.Errorf("AtClamped(100,100) = %d", g.AtClamped(100, 100))
	}
}

func TestInBounds(t *testing.T) {
	g := img.NewGray(10, 10)
	if !g.InBounds(5, 5, 3) {
		t.Error("center should be in bounds")
	}
	if g.InBounds(2, 5, 3) || g.InBounds(5, 8, 3) {
		t.Error("margin violations should be out of bounds")
	}
}

func TestBilinearExactOnGrid(t *testing.T) {
	g := gradient(32, 32)
	for _, p := range [][2]int{{0, 0}, {5, 7}, {30, 30}} {
		want := float64(g.At(p[0], p[1]))
		got := g.Bilinear(float64(p[0]), float64(p[1]))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Bilinear(%d,%d) = %g, want %g", p[0], p[1], got, want)
		}
	}
	// Midpoint of a linear ramp interpolates linearly.
	a, b := float64(g.At(10, 10)), float64(g.At(11, 10))
	got := g.Bilinear(10.5, 10)
	if math.Abs(got-(a+b)/2) > 0.5 {
		t.Errorf("Bilinear midpoint = %g, want %g", got, (a+b)/2)
	}
}

func TestGaussianBlurPreservesFlat(t *testing.T) {
	g := img.NewGray(32, 32)
	for i := range g.Pix {
		g.Pix[i] = 128
	}
	b := g.GaussianBlur(1.5)
	for i, p := range b.Pix {
		if int(p) < 126 || int(p) > 130 {
			t.Fatalf("flat image blurred to %d at %d", p, i)
		}
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	// Single bright pixel spreads; center attenuates.
	g := img.NewGray(31, 31)
	g.Set(15, 15, 255)
	b := g.GaussianBlur(2)
	if b.At(15, 15) >= 200 {
		t.Errorf("center still %d after blur", b.At(15, 15))
	}
	if b.At(15, 13) == 0 {
		t.Error("blur did not spread energy")
	}
	// Energy roughly preserved (integer rounding loses a little).
	var before, after int
	for _, p := range g.Pix {
		before += int(p)
	}
	for _, p := range b.Pix {
		after += int(p)
	}
	if after < before/4 {
		t.Errorf("blur lost too much energy: %d -> %d", before, after)
	}
}

func TestDownsampleAndPyramid(t *testing.T) {
	g := gradient(64, 64)
	d := g.Downsample2x()
	if d.W != 32 || d.H != 32 {
		t.Fatalf("downsample dims %dx%d", d.W, d.H)
	}
	// Mean preserved by box filtering.
	if math.Abs(g.Mean()-d.Mean()) > 2 {
		t.Errorf("means diverge: %g vs %g", g.Mean(), d.Mean())
	}
	pyr := g.Pyramid(4)
	if len(pyr) != 4 {
		t.Fatalf("pyramid has %d levels", len(pyr))
	}
	if pyr[3].W != 8 {
		t.Errorf("level 3 width %d, want 8", pyr[3].W)
	}
	// Pyramid stops before degenerate sizes.
	small := img.NewGray(20, 20)
	p2 := small.Pyramid(10)
	if len(p2) > 2 {
		t.Errorf("tiny image produced %d levels", len(p2))
	}
}

func TestGradientAt(t *testing.T) {
	g := gradient(32, 32) // horizontal ramp
	gx, gy := g.GradientAt(16, 16)
	if gx <= 0 {
		t.Errorf("gx = %d on increasing ramp", gx)
	}
	if gy != 0 {
		t.Errorf("gy = %d on horizontal ramp", gy)
	}
}

func TestPixelAccessIsProfiled(t *testing.T) {
	g := gradient(16, 16)
	c := profile.Collect(func() {
		_ = g.At(1, 1)
		g.Set(2, 2, 5)
		_ = g.AtClamped(-1, -1)
	})
	if c.M < 3 {
		t.Errorf("pixel accesses recorded %d M ops, want >= 3", c.M)
	}
}

// Property: bilinear sampling stays within the convex hull of pixel
// values.
func TestPropBilinearBounded(t *testing.T) {
	g := gradient(16, 16)
	f := func(xr, yr float64) bool {
		if math.IsNaN(xr) || math.IsInf(xr, 0) || math.IsNaN(yr) || math.IsInf(yr, 0) {
			return true
		}
		x := math.Mod(math.Abs(xr), 15)
		y := math.Mod(math.Abs(yr), 15)
		v := g.Bilinear(x, y)
		return v >= 0 && v <= 255
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
