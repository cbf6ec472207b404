// Package image provides the 8-bit grayscale image machinery the
// perception kernels run on: clamped access, separable Gaussian blur,
// image pyramids, bilinear sampling, and gradients.
//
// Everything is deliberately integer-first: on a Cortex-M the pixel
// pipeline stays in fixed-width integer arithmetic wherever possible
// (the paper notes fastbrief and orb are integer-only apart from their
// Gaussian blur), and every pixel access is charged to the profiler as a
// memory operation so the perception kernels report honest mixes.
package image

import (
	"fmt"

	"repro/internal/profile"
)

// Gray is an 8-bit grayscale image.
type Gray struct {
	W, H int
	Pix  []uint8 // row-major
}

// NewGray allocates a zeroed W×H image.
func NewGray(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y) with no bounds check, charging one
// memory op.
func (g *Gray) At(x, y int) uint8 {
	profile.AddM(1)
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y), charging one memory op.
func (g *Gray) Set(x, y int, v uint8) {
	profile.AddM(1)
	g.Pix[y*g.W+x] = v
}

// AtClamped returns the pixel at (x, y) with coordinates clamped to the
// image border — the standard MCU convolution boundary policy.
func (g *Gray) AtClamped(x, y int) uint8 {
	profile.AddM(1)
	profile.AddB(2)
	return g.AtClampedQuiet(x, y)
}

// AtClampedQuiet is AtClamped without the profiler hooks. Loops that
// read many clamped pixels use it and charge the aggregate mix — M1 +
// B2 per read — themselves, once.
func (g *Gray) AtClampedQuiet(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// InBounds reports whether (x, y) is inside the image with the given
// margin.
func (g *Gray) InBounds(x, y, margin int) bool {
	profile.AddB(2)
	return x >= margin && y >= margin && x < g.W-margin && y < g.H-margin
}

// Bilinear samples the image at fractional coordinates with bilinear
// interpolation, in 16.16 fixed-point arithmetic as an MCU would.
func (g *Gray) Bilinear(x, y float64) float64 {
	profile.AddM(4)
	profile.AddI(12)
	return g.BilinearQuiet(x, y)
}

// BilinearQuiet is Bilinear without the profiler hooks; window loops use
// it and charge M4 + I12 per sample themselves, once.
func (g *Gray) BilinearQuiet(x, y float64) float64 {
	x0, y0 := int(x), int(y)
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x0 >= g.W-1 {
		x0 = g.W - 2
	}
	if y0 >= g.H-1 {
		y0 = g.H - 2
	}
	fx, fy := x-float64(x0), y-float64(y0)
	if fx < 0 {
		fx = 0
	} else if fx > 1 {
		fx = 1
	}
	if fy < 0 {
		fy = 0
	} else if fy > 1 {
		fy = 1
	}
	p00 := float64(g.Pix[y0*g.W+x0])
	p10 := float64(g.Pix[y0*g.W+x0+1])
	p01 := float64(g.Pix[(y0+1)*g.W+x0])
	p11 := float64(g.Pix[(y0+1)*g.W+x0+1])
	top := p00 + fx*(p10-p00)
	bot := p01 + fx*(p11-p01)
	return top + fy*(bot-top)
}

// GaussianBlur returns a blurred copy using a separable integer kernel
// scaled to 8-bit weights, the classic embedded implementation.
//
// The convolution is the hottest per-pixel loop in the perception
// kernels, so it runs hook-free and each pass charges the exact
// per-pixel mix the hooked tap loop would have — taps×(M1+B2) for the
// clamped loads, 2·taps integer MACs, and M1 for the store — in one
// flush.
//
// Both passes run the same row loop, blurRow. The horizontal pass
// feeds it a copy of the source row padded by r clamped pixels on each
// side; the vertical pass feeds it whole rows of the intermediate
// image, clamping the row index instead of each pixel. blurRow folds
// the kernel's symmetric taps, k[r-i] = k[r+i], into one multiply per
// pair. The weighted sums are integers, so regrouping them changes no
// output byte.
func (g *Gray) GaussianBlur(sigma float64) *Gray {
	var kbuf [32]int // radius ≤ 15, σ < 6, stays off the heap
	k := gaussKernel(kbuf[:0], sigma)
	r := len(k) / 2
	taps := uint64(len(k))
	n := uint64(g.W) * uint64(g.H)
	perPass := profile.Counts{M: n * (taps + 1), I: n * 2 * taps, B: n * 2 * taps}
	charge := perPass
	charge.Add(perPass)
	profile.AddCounts(charge)
	w, h := g.W, g.H
	out := NewGray(w, h)
	if n == 0 {
		return out
	}
	wsum := 0
	for _, kw := range k {
		wsum += kw
	}
	// The padded source row lives past the end of the intermediate
	// image's pixels, in the same allocation.
	buf := make([]uint8, w*h+w+2*r)
	tmp := &Gray{W: w, H: h, Pix: buf[: w*h : w*h]}
	pad := buf[w*h:]
	acc := make([]int, w)

	padded := func(d int) []uint8 { return pad[r+d:] }
	for y := 0; y < h; y++ {
		src := g.Pix[y*w : (y+1)*w]
		copy(pad[r:], src)
		for i := 0; i < r; i++ {
			pad[i] = src[0]
			pad[r+w+i] = src[w-1]
		}
		blurRow(tmp.Pix[y*w:(y+1)*w], acc, k, wsum, padded)
	}

	var y int
	clampedRow := func(d int) []uint8 {
		yy := y + d
		if yy < 0 {
			yy = 0
		} else if yy >= h {
			yy = h - 1
		}
		return tmp.Pix[yy*w:]
	}
	for y = 0; y < h; y++ {
		blurRow(out.Pix[y*w:(y+1)*w], acc, k, wsum, clampedRow)
	}
	return out
}

// blurRow convolves one row: dst[x] = Σ k[r+d]·src(d)[x] / wsum over
// tap offsets d in [-r, r], where src(d) is the source row shifted by d
// and len(dst) = len(acc). The symmetric taps are summed in pairs over
// contiguous slices the compiler can index without bounds checks.
func blurRow(dst []uint8, acc, k []int, wsum int, src func(d int) []uint8) {
	r := len(k) / 2
	mid := src(0)[:len(acc)]
	kc := k[r]
	for x, p := range mid {
		acc[x] = kc * int(p)
	}
	for i := 1; i <= r; i++ {
		lo, hi := src(-i)[:len(acc)], src(i)[:len(acc)]
		ki := k[r+i]
		for x := range acc {
			acc[x] += ki * (int(lo[x]) + int(hi[x]))
		}
	}
	dst = dst[:len(acc)]
	if uint64(wsum)*255 <= 1<<32-1 {
		// No sum exceeds 255·wsum, so a 32-bit divide is exact, and it
		// is several times cheaper than a 64-bit one.
		ws := uint32(wsum)
		for x, a := range acc {
			dst[x] = uint8(uint32(a) / ws)
		}
		return
	}
	for x, a := range acc {
		dst[x] = uint8(a / wsum)
	}
}

// gaussKernel appends to dst an integer Gaussian kernel with radius
// ceil(2.5σ) and weights scaled so the center is 256.
func gaussKernel(dst []int, sigma float64) []int {
	if sigma < 0.3 {
		sigma = 0.3
	}
	r := int(2.5*sigma + 0.5)
	if r < 1 {
		r = 1
	}
	for i := -r; i <= r; i++ {
		x := float64(i) / sigma
		w := int(256.0*gaussExp(-0.5*x*x) + 0.5)
		if w == 0 {
			w = 1
		}
		dst = append(dst, w)
	}
	return dst
}

// gaussExp is exp(x) for x <= 0 via a short series — keeps the package
// free of math imports in its hot path and mirrors lookup-table practice.
func gaussExp(x float64) float64 {
	// exp(x) = 1/exp(-x); compute exp(-x) for -x >= 0 with a Padé-ish
	// repeated-squaring approximation.
	nx := -x
	n := 1.0 + nx/64
	n = n * n
	n = n * n
	n = n * n
	n = n * n
	n = n * n
	n = n * n
	return 1 / n
}

// Downsample2x returns the half-resolution image (2×2 box filter), the
// pyramid level construction used by SIFT and pyramidal LK. Each output
// pixel costs four loads, four integer ops and one store (M5 + I4),
// charged for the whole image at once.
func (g *Gray) Downsample2x() *Gray {
	out := NewGray(g.W/2, g.H/2)
	for y := 0; y < out.H; y++ {
		r0 := g.Pix[2*y*g.W : (2*y+1)*g.W]
		r1 := g.Pix[(2*y+1)*g.W : (2*y+2)*g.W]
		o := out.Pix[y*out.W : (y+1)*out.W]
		for x := range o {
			s := int(r0[2*x]) + int(r0[2*x+1]) + int(r1[2*x]) + int(r1[2*x+1])
			o[x] = uint8(s / 4)
		}
	}
	n := uint64(len(out.Pix))
	profile.AddCounts(profile.Counts{M: 5 * n, I: 4 * n})
	return out
}

// Pyramid builds levels-deep image pyramid; level 0 is the original.
func (g *Gray) Pyramid(levels int) []*Gray {
	pyr := make([]*Gray, 0, levels)
	cur := g
	for l := 0; l < levels; l++ {
		pyr = append(pyr, cur)
		if cur.W < 16 || cur.H < 16 {
			break
		}
		cur = cur.Downsample2x()
	}
	return pyr
}

// GradientAt returns the central-difference gradient at (x, y); callers
// guarantee a 1-pixel margin.
func (g *Gray) GradientAt(x, y int) (gx, gy int) {
	profile.AddM(4)
	profile.AddI(2)
	return g.GradientAtQuiet(x, y)
}

// GradientAtQuiet is GradientAt without the profiler hooks; window
// loops use it and charge M4 + I2 per sample themselves, once.
func (g *Gray) GradientAtQuiet(x, y int) (gx, gy int) {
	gx = int(g.Pix[y*g.W+x+1]) - int(g.Pix[y*g.W+x-1])
	gy = int(g.Pix[(y+1)*g.W+x]) - int(g.Pix[(y-1)*g.W+x])
	return gx, gy
}

// String describes the image dimensions.
func (g *Gray) String() string { return fmt.Sprintf("Gray(%dx%d)", g.W, g.H) }

// Mean returns the average pixel intensity.
func (g *Gray) Mean() float64 {
	var s uint64
	for _, p := range g.Pix {
		s += uint64(p)
	}
	return float64(s) / float64(len(g.Pix))
}
