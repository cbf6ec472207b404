package feature

// The hooked bodies of the feature pipeline's closed-form sites, kept
// as oracles: each charges the profiler per pixel, per sample or per
// test, as the kernels did before their mixes were charged in bulk. The
// tests below require the closed-form versions to return the same
// values and record the same counts.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	img "repro/internal/image"
	"repro/internal/profile"
)

func siftHooked(g *img.Gray, cfg SIFTConfig) SIFTResult {
	if cfg.Octaves == 0 {
		cfg = DefaultSIFTConfig()
	}
	res := SIFTResult{}
	base := g
	for oct := 0; oct < cfg.Octaves && base.W >= 16 && base.H >= 16; oct++ {
		// Gaussian stack for this octave (incremental blurs).
		nScales := cfg.ScalesPerOctave + 3
		gauss := make([]*img.Gray, nScales)
		gauss[0] = base.GaussianBlur(cfg.InitialSigma)
		k := math.Pow(2, 1/float64(cfg.ScalesPerOctave))
		sigma := cfg.InitialSigma
		for s := 1; s < nScales; s++ {
			step := sigma * math.Sqrt(k*k-1)
			gauss[s] = gauss[s-1].GaussianBlur(step)
			sigma *= k
		}
		// DoG stack.
		dog := make([][]int16, nScales-1)
		for s := 0; s < nScales-1; s++ {
			d := make([]int16, base.W*base.H)
			for i := range d {
				d[i] = int16(gauss[s+1].Pix[i]) - int16(gauss[s].Pix[i])
			}
			profile.AddI(uint64(len(d)))
			profile.AddM(uint64(2 * len(d)))
			dog[s] = d
		}
		// Extrema detection over 26 neighbors in scale space.
		w, h := base.W, base.H
		contrast := int16(cfg.ContrastThresh * 255)
		for s := 1; s < len(dog)-1; s++ {
			for y := 1; y < h-1; y++ {
				for x := 1; x < w-1; x++ {
					v := dog[s][y*w+x]
					profile.AddB(2)
					if v < contrast && v > -contrast {
						continue
					}
					if !isExtremumHooked(dog, s, x, y, w) {
						continue
					}
					if edgeLikeHooked(dog[s], x, y, w, cfg.EdgeThresh) {
						continue
					}
					scale := cfg.InitialSigma * math.Pow(k, float64(s)) * float64(int(1)<<oct)
					for _, angle := range orientationPeaksHooked(gauss[s], x, y, cfg) {
						kp := Keypoint{
							X: x << oct, Y: y << oct,
							Score:  int(absInt16(v)),
							Angle:  angle,
							Octave: oct,
							Size:   scale,
						}
						desc := siftDescriptorHooked(gauss[s], x, y, angle, cfg)
						res.Keypoints = append(res.Keypoints, kp)
						res.Descriptors = append(res.Descriptors, desc)
						if cfg.MaxFeatures > 0 && len(res.Keypoints) >= cfg.MaxFeatures {
							return res
						}
					}
				}
			}
		}
		base = base.Downsample2x()
	}
	return res
}

func isExtremumHooked(dog [][]int16, s, x, y, w int) bool {
	v := dog[s][y*w+x]
	profile.AddM(26)
	profile.AddB(26)
	isMax, isMin := true, true
	for ds := -1; ds <= 1; ds++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if ds == 0 && dy == 0 && dx == 0 {
					continue
				}
				n := dog[s+ds][(y+dy)*w+x+dx]
				if n >= v {
					isMax = false
				}
				if n <= v {
					isMin = false
				}
				if !isMax && !isMin {
					return false
				}
			}
		}
	}
	return isMax || isMin
}

func edgeLikeHooked(d []int16, x, y, w int, edgeThresh float64) bool {
	dxx := float64(d[y*w+x+1]) + float64(d[y*w+x-1]) - 2*float64(d[y*w+x])
	dyy := float64(d[(y+1)*w+x]) + float64(d[(y-1)*w+x]) - 2*float64(d[y*w+x])
	dxy := (float64(d[(y+1)*w+x+1]) - float64(d[(y+1)*w+x-1]) -
		float64(d[(y-1)*w+x+1]) + float64(d[(y-1)*w+x-1])) / 4
	profile.AddF(12)
	profile.AddM(9)
	tr := dxx + dyy
	det := dxx*dyy - dxy*dxy
	if det <= 0 {
		return true
	}
	r := edgeThresh
	return tr*tr/det >= (r+1)*(r+1)/r
}

func orientationPeaksHooked(g *img.Gray, x, y int, cfg SIFTConfig) []float64 {
	bins := cfg.OrientationBins
	hist := make([]float64, bins)
	radius := 8
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			px, py := x+dx, y+dy
			if px < 1 || py < 1 || px >= g.W-1 || py >= g.H-1 {
				continue
			}
			gx, gy := g.GradientAt(px, py)
			mag := math.Sqrt(float64(gx*gx + gy*gy))
			angle := math.Atan2(float64(gy), float64(gx))
			weight := math.Exp(-float64(dx*dx+dy*dy) / (2 * 16))
			bin := int((angle + math.Pi) / (2 * math.Pi) * float64(bins))
			if bin >= bins {
				bin = bins - 1
			}
			hist[bin] += mag * weight
			profile.AddF(45)
		}
	}
	// Peak extraction.
	maxV := 0.0
	for _, v := range hist {
		if v > maxV {
			maxV = v
		}
	}
	profile.AddB(uint64(2 * bins))
	var out []float64
	for i, v := range hist {
		if v >= cfg.PeakRatio*maxV && v > 0 {
			l := hist[(i+bins-1)%bins]
			r := hist[(i+1)%bins]
			if v < l || v < r {
				continue
			}
			// Parabolic interpolation of the peak.
			denom := l - 2*v + r
			offset := 0.0
			if denom != 0 {
				offset = 0.5 * (l - r) / denom
			}
			out = append(out, (float64(i)+0.5+offset)/float64(bins)*2*math.Pi-math.Pi)
			if len(out) >= 2 {
				break
			}
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

func siftDescriptorHooked(g *img.Gray, x, y int, angle float64, cfg SIFTConfig) SIFTDescriptor {
	var desc SIFTDescriptor
	ca, sa := math.Cos(angle), math.Sin(angle)
	radius := cfg.DescWindowRadius
	for dy := -radius; dy < radius; dy++ {
		for dx := -radius; dx < radius; dx++ {
			// Rotate the sample offset into the keypoint frame.
			rx := ca*float64(dx) + sa*float64(dy)
			ry := -sa*float64(dx) + ca*float64(dy)
			px, py := x+dx, y+dy
			if px < 1 || py < 1 || px >= g.W-1 || py >= g.H-1 {
				continue
			}
			gx, gy := g.GradientAt(px, py)
			mag := math.Sqrt(float64(gx*gx + gy*gy))
			theta := math.Atan2(float64(gy), float64(gx)) - angle
			for theta < 0 {
				theta += 2 * math.Pi
			}
			// Cell coordinates in [0, 4).
			cx := (rx + float64(radius)) / float64(2*radius) * 4
			cy := (ry + float64(radius)) / float64(2*radius) * 4
			ci, cj := int(cx), int(cy)
			if ci < 0 || ci > 3 || cj < 0 || cj > 3 {
				continue
			}
			ob := int(theta / (2 * math.Pi) * 8)
			if ob > 7 {
				ob = 7
			}
			weight := math.Exp(-(rx*rx + ry*ry) / (2 * float64(radius*radius)))
			desc[(cj*4+ci)*8+ob] += float32(mag * weight)
			profile.AddF(50)
		}
	}
	// Normalize, clamp, renormalize.
	normalizeDesc(&desc)
	for i := range desc {
		if desc[i] > 0.2 {
			desc[i] = 0.2
		}
	}
	normalizeDesc(&desc)
	profile.AddF(3 * 128)
	return desc
}

func computeBRIEFHooked(sm *img.Gray, x, y int, angle float64, steer bool) Descriptor {
	var d Descriptor
	var ca, sa float64
	if steer {
		ca, sa = math.Cos(angle), math.Sin(angle)
		profile.AddF(40) // the two libm calls
	}
	for i, p := range briefPattern {
		x1, y1, x2, y2 := p[0], p[1], p[2], p[3]
		if steer {
			// Integer-rotated offsets (fixed-point rotation on MCU).
			rx1 := int(math.Round(ca*float64(x1) - sa*float64(y1)))
			ry1 := int(math.Round(sa*float64(x1) + ca*float64(y1)))
			rx2 := int(math.Round(ca*float64(x2) - sa*float64(y2)))
			ry2 := int(math.Round(sa*float64(x2) + ca*float64(y2)))
			x1, y1, x2, y2 = rx1, ry1, rx2, ry2
			profile.AddI(8)
		}
		profile.AddI(1)
		profile.AddB(1)
		if sm.AtClamped(x+x1, y+y1) < sm.AtClamped(x+x2, y+y2) {
			d[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return d
}

func topKByScoreHooked(kps []Keypoint, k int) []Keypoint {
	if k <= 0 || len(kps) <= k {
		return kps
	}
	// Simple selection: repeatedly pick the max (k is small).
	out := make([]Keypoint, 0, k)
	used := make([]bool, len(kps))
	for n := 0; n < k; n++ {
		best := -1
		for i, kp := range kps {
			profile.AddB(1)
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

func harrisScoreHooked(g *img.Gray, x, y int) int {
	var sxx, syy, sxy int64
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			gx, gy := g.GradientAt(x+dx, y+dy)
			sxx += int64(gx * gx)
			syy += int64(gy * gy)
			sxy += int64(gx * gy)
		}
	}
	profile.AddI(49 * 5)
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

func intensityCentroidAngleHooked(g *img.Gray, x, y int) float64 {
	var m10, m01 int
	for dy := -7; dy <= 7; dy++ {
		for dx := -7; dx <= 7; dx++ {
			if dx*dx+dy*dy > 49 {
				continue
			}
			v := int(g.AtClamped(x+dx, y+dy))
			m10 += dx * v
			m01 += dy * v
		}
	}
	profile.AddI(225 * 4)
	profile.AddF(20) // atan2
	return math.Atan2(float64(m01), float64(m10))
}

func detectFASTHooked(g *img.Gray, threshold int) []Keypoint {
	scores := make([]int, g.W*g.H)
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
			if sc := segmentScoreHooked(ring[:], p, threshold); sc > 0 {
				scores[row+x] = sc
			}
		}
	}
	// Every interior pixel paid 5 loads + 4 compares; candidates paid
	// 16 ring loads plus the 32-compare arc-walk setup on top.
	interior := uint64(g.H-2*fastMargin) * uint64(g.W-2*fastMargin)
	profile.AddCounts(profile.Counts{
		M: 5*interior + 16*candidates,
		I: 4*interior + 32*candidates,
		B: 4*interior + 32*candidates,
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
				out = append(out, Keypoint{X: x, Y: y, Score: sc})
			}
		}
	}
	profile.AddCounts(profile.Counts{M: 9 * scored, B: 8 * scored})
	return out
}

func segmentScoreHooked(ring []int, p, threshold int) int {
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
	profile.AddI(48)
	profile.AddB(32)
	return best
}

// same fails t unless the closed-form and hooked runs returned equal
// values and recorded equal counts.
func same(t *testing.T, what string, got, want any, gotC, wantC profile.Counts) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the hooked body", what)
	}
	if gotC != wantC {
		t.Fatalf("%s: counts %+v, hooked %+v", what, gotC, wantC)
	}
}

func oracleImage(seed int64) *img.Gray { return dataset.GenImage(dataset.Midd, 160, 160, seed) }

func TestSIFTMatchesHooked(t *testing.T) {
	g := oracleImage(1)
	full := SIFT(g, DefaultSIFTConfig())
	if len(full.Keypoints) < 5 {
		t.Fatalf("only %d keypoints; the cut-off cases below need more", len(full.Keypoints))
	}
	// MaxFeatures below the full count stops the scan mid-row, where
	// only the pixels scanned so far may be charged.
	for _, maxF := range []int{0, 1, 2, 3, len(full.Keypoints) - 1, len(full.Keypoints)} {
		cfg := DefaultSIFTConfig()
		cfg.MaxFeatures = maxF
		var got, want SIFTResult
		gotC := profile.Collect(func() { got = SIFT(g, cfg) })
		wantC := profile.Collect(func() { want = siftHooked(g, cfg) })
		if maxF > 0 && len(got.Keypoints) != maxF {
			t.Fatalf("MaxFeatures %d: %d keypoints, want the cut-off", maxF, len(got.Keypoints))
		}
		same(t, "SIFT", got, want, gotC, wantC)
	}
}

func TestSIFTWindowsMatchHooked(t *testing.T) {
	g := oracleImage(2).GaussianBlur(1.6)
	cfg := DefaultSIFTConfig()
	for y := 0; y < g.H; y += 7 {
		for x := 0; x < g.W; x += 5 {
			var got, want []float64
			gotC := profile.Collect(func() { got = orientationPeaks(g, x, y, cfg) })
			wantC := profile.Collect(func() { want = orientationPeaksHooked(g, x, y, cfg) })
			same(t, "orientationPeaks", got, want, gotC, wantC)
			angle := float64(x*y%628)/100 - math.Pi
			var gotD, wantD SIFTDescriptor
			gotC = profile.Collect(func() { gotD = siftDescriptor(g, x, y, angle, cfg) })
			wantC = profile.Collect(func() { wantD = siftDescriptorHooked(g, x, y, angle, cfg) })
			same(t, "siftDescriptor", gotD, wantD, gotC, wantC)
		}
	}
}

func TestBRIEFMatchesHooked(t *testing.T) {
	sm := oracleImage(3).GaussianBlur(1.2)
	for _, steer := range []bool{false, true} {
		// Keypoints reach past the border, so the clamped loads clamp.
		for y := -3; y < sm.H+3; y += 6 {
			for x := -3; x < sm.W+3; x += 4 {
				angle := float64((x+7*y)%628) / 100
				var got, want Descriptor
				gotC := profile.Collect(func() { got = computeBRIEF(sm, x, y, angle, steer) })
				wantC := profile.Collect(func() { want = computeBRIEFHooked(sm, x, y, angle, steer) })
				same(t, "computeBRIEF", got, want, gotC, wantC)
			}
		}
	}
}

func TestFASTAndORBMatchHooked(t *testing.T) {
	g := oracleImage(4)
	for y := 4; y < g.H-4; y += 3 {
		for x := 4; x < g.W-4; x += 3 {
			var got, want int
			gotC := profile.Collect(func() { got = harrisScore(g, x, y) })
			wantC := profile.Collect(func() { want = harrisScoreHooked(g, x, y) })
			same(t, "harrisScore", got, want, gotC, wantC)
		}
	}
	for y := -2; y < g.H+2; y += 5 {
		for x := -2; x < g.W+2; x += 5 {
			var got, want float64
			gotC := profile.Collect(func() { got = intensityCentroidAngle(g, x, y) })
			wantC := profile.Collect(func() { want = intensityCentroidAngleHooked(g, x, y) })
			same(t, "intensityCentroidAngle", got, want, gotC, wantC)
		}
	}
	for _, thr := range []int{5, 20, 60} {
		var got, want []Keypoint
		gotC := profile.Collect(func() { got = DetectFAST(g, thr) })
		wantC := profile.Collect(func() { want = detectFASTHooked(g, thr) })
		same(t, "DetectFAST", got, want, gotC, wantC)
	}
	kps := DetectFAST(g, 10)
	for _, k := range []int{0, 1, 5, len(kps) - 1, len(kps), len(kps) + 1} {
		var got, want []Keypoint
		gotC := profile.Collect(func() { got = topKByScore(kps, k) })
		wantC := profile.Collect(func() { want = topKByScoreHooked(kps, k) })
		same(t, "topKByScore", got, want, gotC, wantC)
	}
}
