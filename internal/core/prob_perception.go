package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/harness"
	img "repro/internal/image"
	"repro/internal/mcu"
	"repro/internal/perception/feature"
	"repro/internal/perception/flow"
)

// Image sizes of the characterization: feature detection on 160×160 and
// optical flow on 80×80, chosen so the M4's SRAM suffices (Section V).
const (
	featureImgSize = 160
	flowImgSize    = 80
	staticImgSize  = 48
)

func perceptionSpecs() []Spec {
	return []Spec{
		{
			Name: "fastbrief", Stage: Perception, Category: "Feat. Extr.", Dataset: "midd-stereo",
			Prec:    mcu.PrecF32,
			Factory: func() harness.Problem { return newFeatureProblem("fastbrief", featureImgSize, dataset.Midd) },
			StaticFactory: func() harness.Problem {
				return newFeatureProblem("fastbrief", staticImgSize, dataset.Midd)
			},
			oneSolve: true,
		},
		{
			Name: "orb", Stage: Perception, Category: "Feat. Extr.", Dataset: "midd-stereo",
			Prec:    mcu.PrecF32,
			Factory: func() harness.Problem { return newFeatureProblem("orb", featureImgSize, dataset.Midd) },
			StaticFactory: func() harness.Problem {
				return newFeatureProblem("orb", staticImgSize, dataset.Midd)
			},
			oneSolve: true,
		},
		{
			Name: "sift", Stage: Perception, Category: "Feat. Extr.", Dataset: "midd-stereo",
			// Scale-space pyramids exceed the M4/M33 SRAM; of the
			// reference cores only the M7 (1432 KB) qualifies, but any
			// user board with >= 1400 KB runs it too.
			Prec: mcu.PrecF32, M7Only: true, MinSRAMKB: 1400,
			Factory: func() harness.Problem { return newFeatureProblem("sift", featureImgSize, dataset.Midd) },
			StaticFactory: func() harness.Problem {
				return newFeatureProblem("sift", staticImgSize, dataset.Midd)
			},
			oneSolve: true,
		},
		{
			Name: "lkof", Stage: Perception, Category: "Opt. Flow", Dataset: "midd-flow",
			Prec:    mcu.PrecF32,
			Factory: func() harness.Problem { return newFlowProblem("lkof", flowImgSize, dataset.Midd) },
			StaticFactory: func() harness.Problem {
				return newFlowProblem("lkof", 32, dataset.Midd)
			},
			oneSolve: true,
		},
		{
			Name: "iiof", Stage: Perception, Category: "Opt. Flow", Dataset: "midd-flow",
			Prec:    mcu.PrecF32,
			Factory: func() harness.Problem { return newFlowProblem("iiof", flowImgSize, dataset.Midd) },
			StaticFactory: func() harness.Problem {
				return newFlowProblem("iiof", 64, dataset.Midd)
			},
			oneSolve: true,
		},
		{
			Name: "bbof", Stage: Perception, Category: "Opt. Flow", Dataset: "midd-flow",
			Prec:    mcu.PrecF32,
			Factory: func() harness.Problem { return newFlowProblem("bbof", flowImgSize, dataset.Midd) },
			StaticFactory: func() harness.Problem {
				return newFlowProblem("bbof", 32, dataset.Midd)
			},
			oneSolve: true,
		},
	}
}

// featureProblem wraps the feature-extraction kernels.
type featureProblem struct {
	kernel string
	size   int
	kind   dataset.ImageKind
	img    *img.Gray
	found  int
}

func newFeatureProblem(kernel string, size int, kind dataset.ImageKind) *featureProblem {
	return &featureProblem{kernel: kernel, size: size, kind: kind}
}

// NewFeatureProblem exposes the wrapper for the case studies (Table VI
// sweeps the dataset kind).
func NewFeatureProblem(kernel string, kind dataset.ImageKind) harness.Problem {
	return newFeatureProblem(kernel, featureImgSize, kind)
}

func (p *featureProblem) Name() string { return p.kernel }

func (p *featureProblem) Setup() error {
	p.img = dataset.GenImage(p.kind, p.size, p.size, 101)
	return nil
}

func (p *featureProblem) Solve() {
	switch p.kernel {
	case "fastbrief":
		r := feature.FASTBrief(p.img, 20, 100)
		p.found = len(r.Keypoints)
	case "orb":
		r := feature.ORB(p.img, 20, 100)
		p.found = len(r.Keypoints)
	default: // sift
		cfg := feature.DefaultSIFTConfig()
		cfg.MaxFeatures = 150
		r := feature.SIFT(p.img, cfg)
		p.found = len(r.Keypoints)
	}
}

func (p *featureProblem) Validate() error {
	// The sparse lights dataset legitimately yields few features; the
	// textured datasets must yield a healthy set.
	min := 5
	if p.kind == dataset.Lights {
		min = 1
	}
	if p.found < min {
		return fmt.Errorf("%s found only %d features", p.kernel, p.found)
	}
	return nil
}

// flowProblem wraps the optical-flow kernels. Each Solve estimates the
// displacement of a grid of tracked features, as the onboard pipeline
// does per frame.
type flowProblem struct {
	kernel string
	size   int
	kind   dataset.ImageKind
	pair   dataset.FlowPair
	worst  float64
	valid  bool
	vec    bool // bbof-vec variant
}

func newFlowProblem(kernel string, size int, kind dataset.ImageKind) *flowProblem {
	return &flowProblem{kernel: kernel, size: size, kind: kind}
}

// NewFlowProblem exposes the wrapper for the case studies; vec selects
// the USADA8-modeled bbof-vec variant.
func NewFlowProblem(kernel string, kind dataset.ImageKind, vec bool) harness.Problem {
	p := newFlowProblem(kernel, flowImgSize, kind)
	p.vec = vec
	return p
}

func (p *flowProblem) Name() string {
	if p.vec {
		return p.kernel + "-vec"
	}
	return p.kernel
}

func (p *flowProblem) Setup() error {
	p.pair = dataset.GenFlowPair(p.kind, p.size, p.size, 2, -1, 202)
	return nil
}

// trackPoints is the feature grid each flow invocation tracks, placed
// with enough margin for the widest kernel window (iiof's ±20 analysis
// window plus its ±2 reference shift).
func (p *flowProblem) trackPoints() [][2]int {
	c := p.size / 2
	o := p.size / 8
	return [][2]int{{c, c}, {c + o, c - o}, {c - o, c + o}, {c - o, c - o}, {c + o, c + o}}
}

func (p *flowProblem) Solve() {
	p.worst = 0
	p.valid = true
	for _, pt := range p.trackPoints() {
		var r flow.Result
		switch p.kernel {
		case "lkof":
			r = flow.LucasKanade(p.pair.A, p.pair.B, float64(pt[0]), float64(pt[1]), flow.DefaultLKConfig())
		case "iiof":
			r = flow.ImageInterpolation(p.pair.A, p.pair.B, pt[0], pt[1], flow.DefaultIIConfig())
		default: // bbof
			if p.vec {
				r = flow.BlockMatchVec(p.pair.A, p.pair.B, pt[0], pt[1], flow.DefaultBBConfig())
			} else {
				r = flow.BlockMatch(p.pair.A, p.pair.B, pt[0], pt[1], flow.DefaultBBConfig())
			}
		}
		if !r.Valid {
			p.valid = false
			continue
		}
		ex := abs(r.DX - p.pair.DX)
		ey := abs(r.DY - p.pair.DY)
		if ex > p.worst {
			p.worst = ex
		}
		if ey > p.worst {
			p.worst = ey
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (p *flowProblem) Validate() error {
	if !p.valid {
		return errors.New("flow kernel returned invalid results")
	}
	if p.worst > 1.5 {
		return fmt.Errorf("flow error %.2f px exceeds tolerance", p.worst)
	}
	return nil
}
