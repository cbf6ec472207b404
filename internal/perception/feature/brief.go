package feature

import (
	"math"
	"math/rand"

	img "repro/internal/image"
	"repro/internal/profile"
)

// Descriptor is a 256-bit binary descriptor (BRIEF / rBRIEF).
type Descriptor [32]byte

// HammingDistance counts differing bits between two descriptors.
func HammingDistance(a, b Descriptor) int {
	profile.AddI(32)
	d := 0
	for i := range a {
		d += popcount(a[i] ^ b[i])
	}
	return d
}

func popcount(b byte) int {
	n := 0
	for b != 0 {
		n += int(b & 1)
		b >>= 1
	}
	return n
}

// briefPattern is the fixed pseudo-random point-pair test pattern within
// a 31×31 patch, generated once with a fixed seed (the classic BRIEF
// isotropic Gaussian sampling, clamped to the patch).
var briefPattern = func() [256][4]int {
	rng := rand.New(rand.NewSource(0x5EED))
	var pat [256][4]int
	sample := func() int {
		v := int(rng.NormFloat64() * 31.0 / 5.0)
		if v > 15 {
			v = 15
		}
		if v < -15 {
			v = -15
		}
		return v
	}
	for i := range pat {
		pat[i] = [4]int{sample(), sample(), sample(), sample()}
	}
	return pat
}()

// briefMargin is the patch half-size plus rotation slack.
const briefMargin = 17

// computeBRIEF evaluates the 256 point-pair tests at keypoint (x, y) on
// the (pre-smoothed) image. With steer set, the pattern is rotated by
// angle — ORB's rBRIEF.
//
// Each test costs two clamped loads (M1 + B2 each), a compare and a
// bit set (I1 + B1), and when steered eight integer ops for the
// rotated offsets; the two libm calls cost 40 float ops. The whole
// descriptor is charged once.
func computeBRIEF(sm *img.Gray, x, y int, angle float64, steer bool) Descriptor {
	n := uint64(len(briefPattern))
	cost := profile.Counts{I: n, M: 2 * n, B: 5 * n}
	var d Descriptor
	var ca, sa float64
	if steer {
		ca, sa = math.Cos(angle), math.Sin(angle)
		cost.F += 40
		cost.I += 8 * n
	}
	profile.AddCounts(cost)
	for i, p := range briefPattern {
		x1, y1, x2, y2 := p[0], p[1], p[2], p[3]
		if steer {
			// Integer-rotated offsets (fixed-point rotation on MCU).
			rx1 := int(math.Round(ca*float64(x1) - sa*float64(y1)))
			ry1 := int(math.Round(sa*float64(x1) + ca*float64(y1)))
			rx2 := int(math.Round(ca*float64(x2) - sa*float64(y2)))
			ry2 := int(math.Round(sa*float64(x2) + ca*float64(y2)))
			x1, y1, x2, y2 = rx1, ry1, rx2, ry2
		}
		if sm.AtClampedQuiet(x+x1, y+y1) < sm.AtClampedQuiet(x+x2, y+y2) {
			d[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return d
}

// FASTBriefResult bundles keypoints with their descriptors.
type FASTBriefResult struct {
	Keypoints   []Keypoint
	Descriptors []Descriptor
}

// FASTBrief is the fastbrief kernel: FAST-9 detection on the raw image,
// BRIEF-256 description on a lightly smoothed copy. Integer-only except
// for the Gaussian blur, as characterized in the paper.
func FASTBrief(g *img.Gray, threshold, maxFeatures int) FASTBriefResult {
	kps := DetectFAST(g, threshold)
	kps = topKByScore(kps, maxFeatures)
	sm := g.GaussianBlur(1.2)
	out := FASTBriefResult{}
	for _, kp := range kps {
		if !g.InBounds(kp.X, kp.Y, briefMargin) {
			continue
		}
		out.Keypoints = append(out.Keypoints, kp)
		out.Descriptors = append(out.Descriptors, computeBRIEF(sm, kp.X, kp.Y, 0, false))
	}
	return out
}

// topKByScore keeps the k best keypoints by detector response
// (selection by partial sorting, as an MCU implementation would). Each
// of the k selection passes compares every keypoint once, charged for
// all passes at once.
func topKByScore(kps []Keypoint, k int) []Keypoint {
	if k <= 0 || len(kps) <= k {
		return kps
	}
	profile.AddB(uint64(k) * uint64(len(kps)))
	// Simple selection: repeatedly pick the max (k is small).
	out := make([]Keypoint, 0, k)
	used := make([]bool, len(kps))
	for n := 0; n < k; n++ {
		best := -1
		for i, kp := range kps {
			if used[i] {
				continue
			}
			if best < 0 || kp.Score > kps[best].Score {
				best = i
			}
		}
		used[best] = true
		out = append(out, kps[best])
	}
	return out
}

// ORBResult bundles oriented keypoints with rotated-BRIEF descriptors.
type ORBResult struct {
	Keypoints   []Keypoint
	Descriptors []Descriptor
}

// orbLevels is the detection pyramid depth — real ORB detects across
// scales, the main reason it costs 1.5-2.5x fastbrief in the paper's
// characterization.
const orbLevels = 3

// ORB is the orb kernel: pyramidal FAST detection, Harris-style ranking,
// intensity-centroid orientation, and rotation-steered BRIEF.
func ORB(g *img.Gray, threshold, maxFeatures int) ORBResult {
	pyr := g.Pyramid(orbLevels)
	out := ORBResult{}
	var all []Keypoint
	for lvl, lg := range pyr {
		kps := DetectFAST(lg, threshold)
		for _, kp := range kps {
			// Harris window plus gradient stencil needs a 5-px margin.
			if !lg.InBounds(kp.X, kp.Y, 5) {
				continue
			}
			kp.Score = harrisScore(lg, kp.X, kp.Y)
			kp.Octave = lvl
			all = append(all, kp)
		}
	}
	all = topKByScore(all, maxFeatures)
	// Smooth each level once for description.
	smoothed := make([]*img.Gray, len(pyr))
	for i, lg := range pyr {
		smoothed[i] = lg.GaussianBlur(1.2)
	}
	for _, kp := range all {
		lg := pyr[kp.Octave]
		if !lg.InBounds(kp.X, kp.Y, briefMargin) {
			continue
		}
		kp.Angle = intensityCentroidAngle(lg, kp.X, kp.Y)
		desc := computeBRIEF(smoothed[kp.Octave], kp.X, kp.Y, kp.Angle, true)
		// Report keypoints in level-0 coordinates.
		kp.X <<= uint(kp.Octave)
		kp.Y <<= uint(kp.Octave)
		out.Keypoints = append(out.Keypoints, kp)
		out.Descriptors = append(out.Descriptors, desc)
	}
	return out
}

// harrisScore computes an integer Harris corner response over a 7×7
// window (scaled down to avoid overflow), used by ORB to rank FAST
// corners. The 49 gradients (M4 + I2 each) and their five-op
// accumulation are charged once.
func harrisScore(g *img.Gray, x, y int) int {
	var sxx, syy, sxy int64
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			gx, gy := g.GradientAtQuiet(x+dx, y+dy)
			sxx += int64(gx * gx)
			syy += int64(gy * gy)
			sxy += int64(gx * gy)
		}
	}
	profile.AddCounts(profile.Counts{M: 49 * 4, I: 49*2 + 49*5})
	// det - k·trace² with k = 0.04 ≈ 1/25, integer arithmetic.
	det := sxx*syy - sxy*sxy
	tr := sxx + syy
	score := det - tr*tr/25
	// Rescale into int range.
	score >>= 16
	if score > math.MaxInt32 {
		score = math.MaxInt32
	}
	if score < 0 {
		score = 0
	}
	return int(score)
}

// intensityCentroidAngle returns the patch orientation from first-order
// moments over a radius-7 disc (Rosin's intensity centroid, as in ORB).
// The disc's clamped loads (M1 + B2 each), the moment arithmetic and
// the atan2 are charged once.
func intensityCentroidAngle(g *img.Gray, x, y int) float64 {
	var m10, m01 int
	var loads uint64
	for dy := -7; dy <= 7; dy++ {
		for dx := -7; dx <= 7; dx++ {
			if dx*dx+dy*dy > 49 {
				continue
			}
			v := int(g.AtClampedQuiet(x+dx, y+dy))
			m10 += dx * v
			m01 += dy * v
			loads++
		}
	}
	profile.AddCounts(profile.Counts{M: loads, B: 2 * loads, I: 225 * 4, F: 20})
	return math.Atan2(float64(m01), float64(m10))
}
