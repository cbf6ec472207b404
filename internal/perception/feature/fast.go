// Package feature implements the feature-extraction kernels of the
// suite: fastbrief (FAST-9 corners + BRIEF-256 descriptors), orb
// (oriented FAST + rotated BRIEF with Harris ranking), and sift (full
// DoG scale space with 128-float descriptors). fastbrief and orb are
// integer-only apart from Gaussian smoothing, exactly as the paper
// notes; sift is the memory-hungry outlier that only fits the M7.
package feature

import (
	img "repro/internal/image"
	"repro/internal/profile"
)

// Keypoint is a detected interest point.
type Keypoint struct {
	X, Y   int
	Score  int     // detector response (FAST arc score or Harris proxy)
	Angle  float64 // orientation in radians (orb, sift)
	Octave int     // pyramid level (sift)
	Size   float64 // scale (sift)
}

// circleOffsets is the 16-pixel Bresenham circle of radius 3 used by the
// FAST segment test, in clockwise order.
var circleOffsets = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// fastMargin is the border the circle requires.
const fastMargin = 3

// DetectFAST runs the FAST-9 segment test over the image and returns
// corners after 3×3 non-maximum suppression on the arc score.
//
// The segment test touches every interior pixel five to twenty-one
// times, so it accounts in bulk: pixels are read straight from g.Pix,
// and the exact per-pixel mix the hooked loop charged — one center
// load, four compass loads, four integer compares and branches, plus
// for the pixels that survive the compass reject the full 16-ring cost
// and segmentScore's arc walk — is tallied analytically and charged
// with profile.AddCounts.
func DetectFAST(g *img.Gray, threshold int) []Keypoint {
	// An arc score sums at most 16 differences of 8-bit pixels, at most
	// 16 × 255 = 4080, so two bytes hold every score exactly.
	scores := make([]uint16, g.W*g.H)
	var ring [16]int
	candidates := uint64(0)
	for y := fastMargin; y < g.H-fastMargin; y++ {
		row := y * g.W
		for x := fastMargin; x < g.W-fastMargin; x++ {
			p := int(g.Pix[row+x])
			hi := p + threshold
			lo := p - threshold
			// High-speed reject on the four compass points.
			n, s := int(g.Pix[row-3*g.W+x]), int(g.Pix[row+3*g.W+x])
			e, w := int(g.Pix[row+x+3]), int(g.Pix[row+x-3])
			// Any contiguous 9-arc of the 16-ring covers at least two of
			// the four compass points, so fewer than two passing compass
			// points rules a FAST-9 corner out.
			bright := b2i(n > hi) + b2i(s > hi) + b2i(e > hi) + b2i(w > hi)
			dark := b2i(n < lo) + b2i(s < lo) + b2i(e < lo) + b2i(w < lo)
			if bright < 2 && dark < 2 {
				continue
			}
			// Full segment test.
			candidates++
			for i, off := range circleOffsets {
				ring[i] = int(g.Pix[(y+off[1])*g.W+x+off[0]])
			}
			if sc := segmentScore(ring[:], p, threshold); sc > 0 {
				scores[row+x] = uint16(sc)
			}
		}
	}
	// Every interior pixel paid 5 loads + 4 compares; candidates paid
	// 16 ring loads plus the 32-compare arc-walk setup on top, and
	// segmentScoreCost.
	interior := uint64(g.H-2*fastMargin) * uint64(g.W-2*fastMargin)
	profile.AddCounts(profile.Counts{
		M: 5*interior + 16*candidates,
		I: 4*interior + (32+segmentScoreCost.I)*candidates,
		B: 4*interior + (32+segmentScoreCost.B)*candidates,
	})
	// 3×3 non-maximum suppression.
	var out []Keypoint
	scored := uint64(0)
	for y := fastMargin; y < g.H-fastMargin; y++ {
		for x := fastMargin; x < g.W-fastMargin; x++ {
			sc := scores[y*g.W+x]
			if sc == 0 {
				continue
			}
			scored++
			isMax := true
			for dy := -1; dy <= 1 && isMax; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					if scores[(y+dy)*g.W+x+dx] > sc {
						isMax = false
						break
					}
				}
			}
			if isMax {
				out = append(out, Keypoint{X: x, Y: y, Score: int(sc)})
			}
		}
	}
	profile.AddCounts(profile.Counts{M: 9 * scored, B: 8 * scored})
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// segmentScoreCost is what one segmentScore call costs: the two 32-step
// arc walks' integer ops and branches.
var segmentScoreCost = profile.Counts{I: 48, B: 32}

// segmentScore returns the FAST-9 corner score: the maximal sum of
// absolute differences over a contiguous arc of >= 9 pixels that are all
// brighter or all darker than center±threshold; 0 if not a corner. It
// does not charge the profiler; the caller charges segmentScoreCost per
// call.
func segmentScore(ring []int, p, threshold int) int {
	hi := p + threshold
	lo := p - threshold
	best := 0
	for _, darkMode := range []bool{false, true} {
		run := 0
		sum := 0
		// Walk the ring twice to handle wraparound arcs.
		for i := 0; i < 32; i++ {
			v := ring[i%16]
			pass := v > hi
			d := v - p
			if darkMode {
				pass = v < lo
				d = p - v
			}
			if pass {
				run++
				sum += d
				if run >= 9 && sum > best {
					best = sum
				}
				if run >= 16 {
					break
				}
			} else {
				run = 0
				sum = 0
			}
		}
	}
	return best
}
