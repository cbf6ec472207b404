package mat_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/scalar"
)

// randPoly draws a polynomial with bounded coefficients and degree.
func randPoly(rng *rand.Rand, maxDeg int) mat.Poly[F] {
	deg := 1 + rng.Intn(maxDeg)
	out := make(mat.Poly[F], deg+1)
	for i := range out {
		out[i] = F(rng.NormFloat64())
	}
	return out
}

// Property: (p·q)(x) = p(x)·q(x).
func TestPropPolyMulEval(t *testing.T) {
	f := func(seed int64, xr float64) bool {
		if math.IsNaN(xr) || math.IsInf(xr, 0) {
			return true
		}
		x := F(math.Mod(xr, 3))
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(rng, 4)
		q := randPoly(rng, 4)
		lhs := p.MulPoly(q).Eval(x).Float()
		rhs := p.Eval(x).Float() * q.Eval(x).Float()
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: (p+q)(x) = p(x)+q(x) and (p−q)(x) = p(x)−q(x).
func TestPropPolyAddSubEval(t *testing.T) {
	f := func(seed int64, xr float64) bool {
		if math.IsNaN(xr) || math.IsInf(xr, 0) {
			return true
		}
		x := F(math.Mod(xr, 3))
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(rng, 5)
		q := randPoly(rng, 5)
		add := p.AddPoly(q).Eval(x).Float()
		sub := p.SubPoly(q).Eval(x).Float()
		pe, qe := p.Eval(x).Float(), q.Eval(x).Float()
		return math.Abs(add-(pe+qe)) < 1e-10*(1+math.Abs(pe+qe)) &&
			math.Abs(sub-(pe-qe)) < 1e-10*(1+math.Abs(pe-qe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every value RealRoots returns is in fact (numerically) a
// root of the polynomial.
func TestPropRealRootsAreRoots(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build from known real linear factors for a guaranteed witness.
		p := mat.PolyFromFloats(F(0), []float64{1})
		deg := 2 + rng.Intn(4)
		var scalePoly float64 = 1
		for i := 0; i < deg; i++ {
			r := rng.NormFloat64() * 2
			p = p.MulPoly(mat.PolyFromFloats(F(0), []float64{-r, 1}))
			scalePoly = math.Max(scalePoly, math.Abs(r))
		}
		roots := p.RealRoots()
		if len(roots) < deg {
			return false // all roots real by construction
		}
		for _, r := range roots {
			if math.Abs(p.Eval(r).Float()) > 1e-5*math.Pow(scalePoly+1, float64(deg)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the derivative obeys (p·q)' = p'q + pq' at sampled points.
func TestPropPolyDerivativeProductRule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(rng, 3)
		q := randPoly(rng, 3)
		x := F(rng.NormFloat64())
		lhs := p.MulPoly(q).Derivative().Eval(x).Float()
		rhs := p.Derivative().Eval(x).Float()*q.Eval(x).Float() +
			p.Eval(x).Float()*q.Derivative().Eval(x).Float()
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NullSpace vectors are orthonormal and (for rank-deficient
// matrices) annihilated by A.
func TestPropNullSpaceOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Rank-2 3×5 matrix: two random rows plus a dependent one.
		a := mat.Zeros[F](3, 5)
		for j := 0; j < 5; j++ {
			a.Set(0, j, F(rng.NormFloat64()))
			a.Set(1, j, F(rng.NormFloat64()))
			a.Set(2, j, a.At(0, j).Add(a.At(1, j)))
		}
		ns := mat.NullSpace(a, 3)
		for i, v := range ns {
			if math.Abs(v.Norm().Float()-1) > 1e-8 {
				return false
			}
			if a.MulVec(v).Norm().Float() > 1e-7 {
				return false
			}
			for j := i + 1; j < len(ns); j++ {
				if math.Abs(v.Dot(ns[j]).Float()) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: LDLT agrees with LU on SPD systems.
func TestPropFactorizationsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 4, 4)
		spd := a.Transpose().Mul(a).Add(mat.Identity(4, F(0)).Scale(F(3)))
		b := mat.VecFromFloats(F(0), []float64{
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(),
		})
		xLU, err1 := mat.Solve(spd, b)
		ld, err2 := mat.LDLTDecompose(spd)
		if err1 != nil || err2 != nil {
			return false
		}
		xLd := ld.Solve(b)
		for i := 0; i < 4; i++ {
			if math.Abs(xLU[i].Float()-xLd[i].Float()) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: QR least squares matches the normal-equation solution on
// well-conditioned problems.
func TestPropLeastSquaresMatchesNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 8, 3)
		b := make(mat.Vec[F], 8)
		for i := range b {
			b[i] = F(rng.NormFloat64())
		}
		xQR, err := mat.LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient draw
		}
		at := a.Transpose()
		xNE, err := mat.Solve(at.Mul(a), at.MulVec(b))
		if err != nil {
			return true
		}
		for i := 0; i < 3; i++ {
			if math.Abs(xQR[i].Float()-xNE[i].Float()) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetric eigenvalues match the singular values of an SPD
// matrix.
func TestPropEigenMatchesSVDOnSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 3, 3)
		spd := a.Transpose().Mul(a).Add(mat.Identity(3, F(0)))
		w := mat.SymEigen(spd).W.Floats()
		s := mat.SVD(spd).S.Floats()
		for i := range w {
			if math.Abs(w[i]-s[i]) > 1e-8*(1+s[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// EpsOf must behave as machine epsilon: 1 + eps != 1 but 1 + eps/4 == 1
// for the float types.
func TestEpsOfCharacterization(t *testing.T) {
	e := mat.EpsOf(scalar.F64(0))
	one := scalar.F64(1)
	if one.Add(e).Sub(one).IsZero() {
		t.Error("1 + eps collapsed to 1")
	}
	quarter := e.Mul(scalar.F64(0.25))
	if !one.Add(quarter).Sub(one).IsZero() {
		t.Error("1 + eps/4 did not collapse")
	}
}
