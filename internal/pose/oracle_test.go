package pose_test

// Oracle tests for the native pose bodies: RefineAbsPose's Jacobian
// (absJacobianNat) and ReprojectErr (reprojectNat) run once natively and
// once with mat.SetReferenceKernels(true), where the hooked bodies do
// the work, and must agree in every bit and count — on the suite's
// abs-synth and rob-abs-synth problems and on seeded random ones.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/pose"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// bothModes runs fn natively and then in the reference-kernel mode and
// returns the two results' fingerprints and counts.
func bothModes(fn func() string) (fast, ref string, fastC, refC profile.Counts) {
	prev := mat.SetReferenceKernels(false)
	defer mat.SetReferenceKernels(prev)
	fastC = profile.Collect(func() { fast = fn() })
	mat.SetReferenceKernels(true)
	refC = profile.Collect(func() { ref = fn() })
	return fast, ref, fastC, refC
}

func checkBoth(t *testing.T, name string, fn func() string) {
	t.Helper()
	fast, ref, fastC, refC := bothModes(fn)
	if fastC != refC {
		t.Errorf("%s: counts %+v, hooked %+v", name, fastC, refC)
	}
	if fast != ref {
		t.Errorf("%s: results differ\nnative %s\nhooked %s", name, fast, ref)
	}
}

// bitsFP fingerprints values by their float64 bits.
func bitsFP[T scalar.Real[T]](vs ...T) string {
	s := ""
	for _, v := range vs {
		s += fmt.Sprintf("%x.", math.Float64bits(v.Float()))
	}
	return s
}

func poseFP[T scalar.Real[T]](p pose.Pose[T]) string {
	return bitsFP(p.R.Raw()...) + "|" + bitsFP(p.T...)
}

// suiteAbs returns the abs-synth (seed 404) and rob-abs-synth (seed
// 406) correspondences the suite's pose kernels solve, in like's format.
func suiteAbs[T scalar.Real[T]](like T) [][]pose.AbsCorrespondence[T] {
	a := dataset.GenAbsProblem(dataset.PoseGenConfig{N: 16, PixelNoise: 0.1, Upright: true, Seed: 404})
	b := dataset.GenAbsProblem(dataset.PoseGenConfig{N: 100, PixelNoise: 0.5, OutlierRatio: 0.25, Upright: true, Seed: 406})
	return [][]pose.AbsCorrespondence[T]{dataset.ConvertAbs(like, a), dataset.ConvertAbs(like, b)}
}

// randomAbs draws n correspondences around a random pose; every fourth
// point lies behind the camera or on its plane, so the depth test
// takes both branches.
func randomAbs[T scalar.Real[T]](like T, rng *rand.Rand, n int) (pose.Pose[T], []pose.AbsCorrespondence[T]) {
	omega := mat.VecFromFloats(like, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
	p := pose.Pose[T]{
		R: geom.ExpSO3(omega),
		T: mat.VecFromFloats(like, []float64{rng.NormFloat64(), rng.NormFloat64(), 4 + rng.Float64()}),
	}
	cs := make([]pose.AbsCorrespondence[T], n)
	for i := range cs {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		switch i % 4 {
		case 1:
			x[2] = -20 // behind the camera
		case 2:
			// On the camera plane: R·X + t has z = 0 exactly when X = -Rᵀt.
			x = p.R.TMulVec(p.T.Neg()).Floats()
		}
		cs[i] = pose.AbsCorrespondence[T]{
			X: mat.VecFromFloats(like, x),
			U: mat.VecFromFloats(like, []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}),
		}
	}
	return p, cs
}

func checkRefineAbsPose[T scalar.Real[T]](t *testing.T, like T) {
	t.Helper()
	for k, corrs := range suiteAbs(like) {
		init, err := pose.DLT(corrs)
		if err != nil {
			init = pose.IdentityPose(like)
			init.T[2] = like.FromFloat(5)
		}
		for _, iters := range []int{1, 5, 10} {
			checkBoth(t, fmt.Sprintf("%T suite %d RefineAbsPose×%d", like, k, iters), func() string {
				return poseFP(pose.RefineAbsPose(init, corrs, iters))
			})
		}
		checkBoth(t, fmt.Sprintf("%T suite %d AbsGoldStandard", like, k), func() string {
			p, err := pose.AbsGoldStandard(corrs)
			return poseFP(p) + fmt.Sprint(err)
		})
	}
	rng := rand.New(rand.NewSource(21))
	for k := 0; k < 40; k++ {
		p, corrs := randomAbs(like, rng, 4+k%13)
		checkBoth(t, fmt.Sprintf("%T random %d RefineAbsPose", like, k), func() string {
			return poseFP(pose.RefineAbsPose(p, corrs, 1+k%6))
		})
	}
}

func TestRefineAbsPoseMatchesHooked(t *testing.T) {
	checkRefineAbsPose(t, scalar.F32(0))
	checkRefineAbsPose(t, scalar.F64(0))
	checkRefineAbsPose(t, fixed.New(0, 16))
}

func checkReprojectErr[T scalar.Real[T]](t *testing.T, like T) {
	t.Helper()
	for k, corrs := range suiteAbs(like) {
		truth, err := pose.DLT(corrs)
		if err != nil {
			t.Fatal(err)
		}
		checkBoth(t, fmt.Sprintf("%T suite %d ReprojectErr", like, k), func() string {
			s := ""
			for _, c := range corrs {
				s += bitsFP(pose.ReprojectErr(truth, c))
			}
			return s
		})
		checkBoth(t, fmt.Sprintf("%T suite %d AbsLoRansac", like, k), func() string {
			p, in, st, err := pose.AbsLoRansac(corrs, pose.P3P[T], 3, pose.DefaultRansacConfig())
			return poseFP(p) + fmt.Sprint(in, st, err)
		})
	}
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 40; k++ {
		p, corrs := randomAbs(like, rng, 12)
		checkBoth(t, fmt.Sprintf("%T random %d ReprojectErr", like, k), func() string {
			s := ""
			for _, c := range corrs {
				s += bitsFP(pose.ReprojectErr(p, c))
			}
			return s
		})
	}
}

func TestReprojectErrMatchesHooked(t *testing.T) {
	checkReprojectErr(t, scalar.F32(0))
	checkReprojectErr(t, scalar.F64(0))
	checkReprojectErr(t, fixed.New(0, 16))
}

// The native scorer allocates nothing: AbsLoRansac pays it once per
// correspondence per hypothesis.
func TestReprojectErrNativeDoesNotAllocate(t *testing.T) {
	p, corrs := randomAbs(scalar.F64(0), rand.New(rand.NewSource(23)), 8)
	var sink scalar.F64
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range corrs {
			sink = sink.Add(pose.ReprojectErr(p, c))
		}
	}); n != 0 {
		t.Fatalf("ReprojectErr allocates %v times per batch", n)
	}
}
