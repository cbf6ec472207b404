package feature

import (
	"math"

	img "repro/internal/image"
	"repro/internal/profile"
)

// SIFTDescriptor is the classic 128-dimensional gradient histogram.
type SIFTDescriptor [128]float32

// SIFTResult bundles scale-space keypoints with their descriptors.
type SIFTResult struct {
	Keypoints   []Keypoint
	Descriptors []SIFTDescriptor
}

// SIFTConfig exposes the scale-space parameters.
type SIFTConfig struct {
	Octaves          int     // pyramid octaves (0 = derive from size)
	ScalesPerOctave  int     // DoG intervals per octave
	ContrastThresh   float64 // DoG extremum rejection threshold
	EdgeThresh       float64 // principal-curvature ratio rejection
	MaxFeatures      int
	InitialSigma     float64
	DescriptorSigma  float64
	OrientationBins  int
	PeakRatio        float64 // secondary orientation peak acceptance
	DescWindowRadius int
}

// DefaultSIFTConfig matches Lowe's canonical parameters at the reduced
// image sizes the benchmark uses.
func DefaultSIFTConfig() SIFTConfig {
	return SIFTConfig{
		Octaves:          4,
		ScalesPerOctave:  3,
		ContrastThresh:   0.03,
		EdgeThresh:       10,
		MaxFeatures:      200,
		InitialSigma:     1.6,
		DescriptorSigma:  1.5,
		OrientationBins:  36,
		PeakRatio:        0.8,
		DescWindowRadius: 8,
	}
}

// SIFT is the sift kernel: a full difference-of-Gaussians scale space
// with orientation assignment and 128-float descriptors. It is by far
// the most memory- and compute-hungry perception kernel — the paper
// reports it only fits the Cortex-M7 even with incremental pyramid
// construction.
func SIFT(g *img.Gray, cfg SIFTConfig) SIFTResult {
	if cfg.Octaves == 0 {
		cfg = DefaultSIFTConfig()
	}
	res := SIFTResult{}
	// The extremum scan charges its per-pixel mix in bulk: scan tallies
	// what the scan has visited so far and is flushed on every return,
	// so an early stop at MaxFeatures charges only the pixels scanned.
	var scan profile.Counts
	defer func() { profile.AddCounts(scan) }()
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
					scan.B += 2
					if v < contrast && v > -contrast {
						continue
					}
					scan.Add(extremumCost)
					if !isExtremum(dog, s, x, y, w) {
						continue
					}
					scan.Add(edgeLikeCost)
					if edgeLike(dog[s], x, y, w, cfg.EdgeThresh) {
						continue
					}
					scale := cfg.InitialSigma * math.Pow(k, float64(s)) * float64(int(1)<<oct)
					for _, angle := range orientationPeaks(gauss[s], x, y, cfg) {
						kp := Keypoint{
							X: x << oct, Y: y << oct,
							Score:  int(absInt16(v)),
							Angle:  angle,
							Octave: oct,
							Size:   scale,
						}
						desc := siftDescriptor(gauss[s], x, y, angle, cfg)
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

func absInt16(v int16) int16 {
	if v < 0 {
		return -v
	}
	return v
}

// extremumCost is what one isExtremum call charges: 26 neighbor loads
// and compares, whether or not it exits early.
var extremumCost = profile.Counts{M: 26, B: 26}

// isExtremum tests whether the DoG sample is a strict max or min of its
// 26 scale-space neighbors. It does not charge the profiler; the caller
// charges extremumCost per call.
func isExtremum(dog [][]int16, s, x, y, w int) bool {
	v := dog[s][y*w+x]
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

// edgeLikeCost is what one edgeLike call charges: the 3×3 Hessian's nine
// loads and twelve float ops.
var edgeLikeCost = profile.Counts{F: 12, M: 9}

// edgeLike rejects extrema on edges via the Hessian trace²/det ratio. It
// does not charge the profiler; the caller charges edgeLikeCost per
// call.
func edgeLike(d []int16, x, y, w int, edgeThresh float64) bool {
	dxx := float64(d[y*w+x+1]) + float64(d[y*w+x-1]) - 2*float64(d[y*w+x])
	dyy := float64(d[(y+1)*w+x]) + float64(d[(y-1)*w+x]) - 2*float64(d[y*w+x])
	dxy := (float64(d[(y+1)*w+x+1]) - float64(d[(y+1)*w+x-1]) -
		float64(d[(y-1)*w+x+1]) + float64(d[(y-1)*w+x-1])) / 4
	tr := dxx + dyy
	det := dxx*dyy - dxy*dxy
	if det <= 0 {
		return true
	}
	r := edgeThresh
	return tr*tr/det >= (r+1)*(r+1)/r
}

// orientationPeaks builds the 36-bin gradient orientation histogram in a
// Gaussian-weighted window and returns the dominant angle plus any
// secondary peaks above the configured ratio. Each in-image sample
// costs a gradient (M4 + I2) and 45 float ops; the window's samples and
// the peak search are charged once, at the end.
func orientationPeaks(g *img.Gray, x, y int, cfg SIFTConfig) []float64 {
	bins := cfg.OrientationBins
	hist := make([]float64, bins)
	radius := 8
	var samples uint64
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			px, py := x+dx, y+dy
			if px < 1 || py < 1 || px >= g.W-1 || py >= g.H-1 {
				continue
			}
			gx, gy := g.GradientAtQuiet(px, py)
			mag := math.Sqrt(float64(gx*gx + gy*gy))
			angle := math.Atan2(float64(gy), float64(gx))
			weight := math.Exp(-float64(dx*dx+dy*dy) / (2 * 16))
			bin := int((angle + math.Pi) / (2 * math.Pi) * float64(bins))
			if bin >= bins {
				bin = bins - 1
			}
			hist[bin] += mag * weight
			samples++
		}
	}
	// Peak extraction.
	maxV := 0.0
	for _, v := range hist {
		if v > maxV {
			maxV = v
		}
	}
	profile.AddCounts(profile.Counts{
		F: 45 * samples, I: 2 * samples, M: 4 * samples,
		B: uint64(2 * bins),
	})
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

// siftDescriptor computes the 4×4×8 gradient histogram descriptor in a
// rotated 16×16 window, trilinear-binned, normalized, clamped at 0.2,
// and renormalized — Lowe's full recipe. Each in-image sample costs a
// gradient (M4 + I2), and each sample that lands in a cell 50 float ops
// more; the window is charged once, with the normalization.
func siftDescriptor(g *img.Gray, x, y int, angle float64, cfg SIFTConfig) SIFTDescriptor {
	var desc SIFTDescriptor
	ca, sa := math.Cos(angle), math.Sin(angle)
	radius := cfg.DescWindowRadius
	var grads, binned uint64
	for dy := -radius; dy < radius; dy++ {
		for dx := -radius; dx < radius; dx++ {
			// Rotate the sample offset into the keypoint frame.
			rx := ca*float64(dx) + sa*float64(dy)
			ry := -sa*float64(dx) + ca*float64(dy)
			px, py := x+dx, y+dy
			if px < 1 || py < 1 || px >= g.W-1 || py >= g.H-1 {
				continue
			}
			gx, gy := g.GradientAtQuiet(px, py)
			grads++
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
			binned++
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
	profile.AddCounts(profile.Counts{
		F: 50*binned + 3*128, I: 2 * grads, M: 4 * grads,
	})
	return desc
}

func normalizeDesc(d *SIFTDescriptor) {
	var s float64
	for _, v := range d {
		s += float64(v) * float64(v)
	}
	n := math.Sqrt(s)
	if n == 0 {
		return
	}
	for i := range d {
		d[i] = float32(float64(d[i]) / n)
	}
}

// SIFTDistance is the Euclidean distance between descriptors.
func SIFTDistance(a, b SIFTDescriptor) float64 {
	profile.AddF(3 * 128)
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}
