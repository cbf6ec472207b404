package control_test

// Oracle test for the native ADMM body of QP.Solve: it runs once
// natively and once with mat.SetReferenceKernels(true), where the
// hooked body does the work, and must agree in every bit and count — on
// the QPs the bee-mpc kernel builds along a closed-loop run and on
// seeded random ones, including a KKT system that fails to factor.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/control"
	"repro/internal/fixed"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

func vecFP[T scalar.Real[T]](v mat.Vec[T]) string {
	s := ""
	for _, x := range v {
		s += fmt.Sprintf("%x.", math.Float64bits(x.Float()))
	}
	return s
}

// checkModes fails t unless fn fingerprints and counts the same
// natively and in the reference-kernel mode.
func checkModes(t *testing.T, name string, fn func() string) {
	t.Helper()
	prev := mat.SetReferenceKernels(false)
	defer mat.SetReferenceKernels(prev)
	var fast, ref string
	fastC := profile.Collect(func() { fast = fn() })
	mat.SetReferenceKernels(true)
	refC := profile.Collect(func() { ref = fn() })
	if fastC != refC {
		t.Errorf("%s: counts %+v, hooked %+v", name, fastC, refC)
	}
	if fast != ref {
		t.Errorf("%s: results differ\nnative %s\nhooked %s", name, fast, ref)
	}
}

func qpFP[T scalar.Real[T]](res control.QPResult[T], err error) string {
	return fmt.Sprintf("%s|%d|%x|%x|%v", vecFP(res.Z), res.Iterations,
		math.Float64bits(res.PrimalRes), math.Float64bits(res.DualRes), err)
}

func checkBeeMPC[T scalar.Real[T]](t *testing.T, like T, steps int) {
	t.Helper()
	a, b, q, r := control.FlyModel(0.002)
	mpc := control.NewBeeMPC(like, a, b, q, r, control.DefaultBeeMPCConfig())
	plant := control.NewLinearPlant(like, a, b, []float64{0.25, 0, 0.15, -0.3})
	xref := mat.VecFromFloats(like, []float64{0, 0, 0, 0})
	for k := 0; k < steps; k++ {
		x := plant.X.Clone()
		var u mat.Vec[T]
		checkModes(t, fmt.Sprintf("%T bee-mpc step %d", like, k), func() string {
			var it int
			var err error
			u, it, err = mpc.Solve(x, xref)
			return fmt.Sprintf("%s|%d|%v", vecFP(u), it, err)
		})
		plant.Step(u)
	}
}

// randomQP draws an n-variable, m-constraint QP: P = G·Gᵀ + I/2, every
// third constraint an equality, the rest boxes, with or without a warm
// start.
func randomQP[T scalar.Real[T]](like T, rng *rand.Rand, n, m int) *control.QP[T] {
	g := make([]float64, n*n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for j := range p[i] {
			for k := 0; k < n; k++ {
				p[i][j] += g[i*n+k] * g[j*n+k]
			}
		}
		p[i][i] += 0.5
	}
	a := make([][]float64, m)
	l := make([]float64, m)
	u := make([]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
		l[i] = -rng.Float64()
		u[i] = rng.Float64()
		if i%3 == 0 {
			u[i] = l[i]
		}
	}
	qv := make([]float64, n)
	for i := range qv {
		qv[i] = rng.NormFloat64()
	}
	s := control.NewQP(mat.FromFloats(like, p), mat.VecFromFloats(like, qv),
		mat.FromFloats(like, a), mat.VecFromFloats(like, l), mat.VecFromFloats(like, u))
	s.MaxIter = 5 + rng.Intn(60)
	if rng.Intn(2) == 0 {
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		s.WarmX = mat.VecFromFloats(like, w)
	}
	return s
}

func checkQPs[T scalar.Real[T]](t *testing.T, like T) {
	t.Helper()
	checkBeeMPC(t, like, 3)
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 30; k++ {
		s := randomQP(like, rng, 2+k%6, 1+k%7)
		checkModes(t, fmt.Sprintf("%T random QP %d", like, k), func() string {
			return qpFP(s.Solve())
		})
	}
	// P + σI = 0 and A = 0: the KKT matrix's first pivot is zero.
	n, m := 2, 1
	sigma := like.FromFloat(1e-6)
	neg := mat.Zeros[T](n, n)
	for i := 0; i < n; i++ {
		neg.Set(i, i, sigma.Neg())
	}
	s := control.NewQP(neg, mat.VecFromFloats(like, []float64{1, 1}), mat.Zeros[T](m, n),
		mat.VecFromFloats(like, []float64{-1}), mat.VecFromFloats(like, []float64{1}))
	checkModes(t, fmt.Sprintf("%T singular KKT", like), func() string {
		return qpFP(s.Solve())
	})
}

func TestQPSolveMatchesHooked(t *testing.T) {
	checkQPs(t, scalar.F32(0))
	checkQPs(t, scalar.F64(0))
	checkBeeMPC(t, fixed.New(0, 16), 1)
}
