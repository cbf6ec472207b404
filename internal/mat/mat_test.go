package mat_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixed"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

type F = scalar.F64

func f64mat(rows [][]float64) mat.Mat[F] { return mat.FromFloats(F(0), rows) }

func matClose(t *testing.T, got mat.Mat[F], want [][]float64, tol float64) {
	t.Helper()
	g := got.Floats()
	if len(g) != len(want) {
		t.Fatalf("rows = %d, want %d", len(g), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(g[i][j]-want[i][j]) > tol {
				t.Fatalf("(%d,%d) = %g, want %g (tol %g)\n%v", i, j, g[i][j], want[i][j], tol, g)
			}
		}
	}
}

func randMat(rng *rand.Rand, r, c int) mat.Mat[F] {
	m := mat.Zeros[F](r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, F(rng.NormFloat64()))
		}
	}
	return m
}

func TestBasicOps(t *testing.T) {
	a := f64mat([][]float64{{1, 2}, {3, 4}})
	b := f64mat([][]float64{{5, 6}, {7, 8}})
	matClose(t, a.Add(b), [][]float64{{6, 8}, {10, 12}}, 0)
	matClose(t, a.Sub(b), [][]float64{{-4, -4}, {-4, -4}}, 0)
	matClose(t, a.Mul(b), [][]float64{{19, 22}, {43, 50}}, 0)
	matClose(t, a.Scale(F(2)), [][]float64{{2, 4}, {6, 8}}, 0)
	matClose(t, a.Transpose(), [][]float64{{1, 3}, {2, 4}}, 0)
	if got := a.Trace().Float(); got != 5 {
		t.Errorf("Trace = %g", got)
	}
	if got := a.FrobNorm().Float(); math.Abs(got-math.Sqrt(30)) > 1e-14 {
		t.Errorf("FrobNorm = %g", got)
	}
	if got := a.MaxAbs().Float(); got != 4 {
		t.Errorf("MaxAbs = %g", got)
	}
}

func TestMulVecAndRowsCols(t *testing.T) {
	a := f64mat([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := mat.VecFromFloats(F(0), []float64{1, 0, -1})
	got := a.MulVec(v).Floats()
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	if r := a.Row(1).Floats(); r[0] != 4 || r[2] != 6 {
		t.Errorf("Row = %v", r)
	}
	if c := a.Col(2).Floats(); c[0] != 3 || c[1] != 6 {
		t.Errorf("Col = %v", c)
	}
}

func TestSubmatrixOps(t *testing.T) {
	a := f64mat([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Submatrix(1, 1, 2, 2)
	matClose(t, s, [][]float64{{5, 6}, {8, 9}}, 0)
	a.SetSubmatrix(0, 0, f64mat([][]float64{{0, 0}, {0, 0}}))
	if a.At(0, 0).Float() != 0 || a.At(1, 1).Float() != 0 || a.At(2, 2).Float() != 9 {
		t.Errorf("SetSubmatrix wrong: %v", a.Floats())
	}
}

func TestIdentityAndClone(t *testing.T) {
	i3 := mat.Identity(3, F(0))
	matClose(t, i3.Mul(i3), [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, 0)
	c := i3.Clone()
	c.Set(0, 0, F(5))
	if i3.At(0, 0).Float() != 1 {
		t.Error("Clone aliases original")
	}
}

func TestVecOps(t *testing.T) {
	v := mat.VecFromFloats(F(0), []float64{3, 4})
	if got := v.Norm().Float(); got != 5 {
		t.Errorf("Norm = %g", got)
	}
	if got := v.Normalized().Norm().Float(); math.Abs(got-1) > 1e-15 {
		t.Errorf("Normalized norm = %g", got)
	}
	w := mat.VecFromFloats(F(0), []float64{1, -1})
	if got := v.Dot(w).Float(); got != -1 {
		t.Errorf("Dot = %g", got)
	}
	a := mat.VecFromFloats(F(0), []float64{1, 0, 0})
	b := mat.VecFromFloats(F(0), []float64{0, 1, 0})
	if got := a.Cross(b).Floats(); got[2] != 1 || got[0] != 0 || got[1] != 0 {
		t.Errorf("Cross = %v", got)
	}
	o := a.Outer(b)
	if o.At(0, 1).Float() != 1 || o.At(1, 0).Float() != 0 {
		t.Errorf("Outer = %v", o.Floats())
	}
}

func TestLUSolveAndDet(t *testing.T) {
	a := f64mat([][]float64{{4, 3}, {6, 3}})
	x, err := mat.Solve(a, mat.VecFromFloats(F(0), []float64{10, 12}))
	if err != nil {
		t.Fatal(err)
	}
	// 4x+3y=10, 6x+3y=12 -> x=1, y=2
	if math.Abs(x[0].Float()-1) > 1e-12 || math.Abs(x[1].Float()-2) > 1e-12 {
		t.Fatalf("Solve = %v", x.Floats())
	}
	if got := mat.Det(a).Float(); math.Abs(got-(-6)) > 1e-12 {
		t.Errorf("Det = %g", got)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := randMat(rng, n, n)
		inv, err := mat.Inverse(a)
		if err != nil {
			continue // singular random matrix, astronomically unlikely
		}
		prod := a.Mul(inv).Floats()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod[i][j]-want) > 1e-9 {
					t.Fatalf("trial %d: A·A⁻¹ (%d,%d) = %g", trial, i, j, prod[i][j])
				}
			}
		}
	}
}

func TestSingularDetection(t *testing.T) {
	a := f64mat([][]float64{{1, 2}, {2, 4}})
	if _, err := mat.LUDecompose(a); err == nil {
		t.Error("expected singular error")
	}
	if _, err := mat.Inverse(a); err == nil {
		t.Error("Inverse of singular should fail")
	}
}

func TestDet3MatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := randMat(rng, 3, 3)
		d3 := mat.Det3(a).Float()
		dl := mat.Det(a).Float()
		if math.Abs(d3-dl) > 1e-10*math.Max(1, math.Abs(dl)) {
			t.Fatalf("Det3 = %g, Det = %g", d3, dl)
		}
	}
}

func TestLDLT(t *testing.T) {
	// Symmetric indefinite but strongly regularized KKT-style matrix.
	a := f64mat([][]float64{
		{4, 1, 2},
		{1, -3, 0.5},
		{2, 0.5, -5},
	})
	f, err := mat.LDLTDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.VecFromFloats(F(0), []float64{1, -2, 3})
	x := f.Solve(b)
	res := a.MulVec(x).Sub(b)
	if res.Norm().Float() > 1e-10 {
		t.Fatalf("LDLT residual %g", res.Norm().Float())
	}
}

func TestQRDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 6, 3)
	f, err := mat.QRDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	q, r := f.Q(), f.R()
	// Qᵀ·Q = I.
	qtq := q.Transpose().Mul(q).Floats()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(qtq[i][j]-want) > 1e-10 {
				t.Fatalf("QᵀQ (%d,%d) = %g", i, j, qtq[i][j])
			}
		}
	}
	// Q·R = A.
	matClose(t, q.Mul(r), a.Floats(), 1e-10)
}

func TestLeastSquares(t *testing.T) {
	// Overdetermined consistent system: x = (1, 2).
	a := f64mat([][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}})
	b := mat.VecFromFloats(F(0), []float64{1, 2, 3, 4})
	x, err := mat.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0].Float()-1) > 1e-12 || math.Abs(x[1].Float()-2) > 1e-12 {
		t.Fatalf("LeastSquares = %v", x.Floats())
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		m := 3 + rng.Intn(5)
		n := 2 + rng.Intn(4)
		a := randMat(rng, m, n)
		res := mat.SVD(a)
		// Descending order.
		for i := 1; i < len(res.S); i++ {
			if res.S[i-1].Float() < res.S[i].Float()-1e-12 {
				t.Fatalf("singular values not descending: %v", res.S.Floats())
			}
		}
		// U·S·Vᵀ = A.
		k := len(res.S)
		sm := mat.Zeros[F](k, k)
		for i := 0; i < k; i++ {
			sm.Set(i, i, res.S[i])
		}
		recon := res.U.Mul(sm).Mul(res.V.Transpose())
		matClose(t, recon, a.Floats(), 1e-9)
		// VᵀV = I.
		vtv := res.V.Transpose().Mul(res.V).Floats()
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv[i][j]-want) > 1e-9 {
					t.Fatalf("VᵀV (%d,%d) = %g", i, j, vtv[i][j])
				}
			}
		}
	}
}

func TestNullVector(t *testing.T) {
	// Rank-2 3x3 matrix with null vector (1, 1, 1)/√3.
	a := f64mat([][]float64{{1, -1, 0}, {0, 1, -1}, {1, 0, -1}})
	nv := mat.NullVector(a)
	r := a.MulVec(nv)
	if r.Norm().Float() > 1e-10 {
		t.Fatalf("A·null = %v", r.Floats())
	}
	if math.Abs(nv.Norm().Float()-1) > 1e-10 {
		t.Fatalf("null vector not unit: %g", nv.Norm().Float())
	}
}

func TestSymEigen(t *testing.T) {
	a := f64mat([][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}})
	res := mat.SymEigen(a)
	// A·v = λ·v for each pair.
	for j := 0; j < 3; j++ {
		v := res.V.Col(j)
		av := a.MulVec(v)
		lv := v.Scale(res.W[j])
		if av.Sub(lv).Norm().Float() > 1e-9 {
			t.Fatalf("eigpair %d residual %g", j, av.Sub(lv).Norm().Float())
		}
	}
	// Eigenvalues descending; trace preserved.
	sum := 0.0
	for i, w := range res.W.Floats() {
		sum += w
		if i > 0 && res.W[i-1].Float() < w-1e-12 {
			t.Fatal("eigenvalues not descending")
		}
	}
	if math.Abs(sum-7) > 1e-10 {
		t.Fatalf("eigenvalue sum = %g, want trace 7", sum)
	}
}

func TestRealEigenvalues(t *testing.T) {
	// Matrix with known eigenvalues 1, 2, 3.
	a := f64mat([][]float64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}})
	// Similarity transform to make it dense.
	p := f64mat([][]float64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}})
	pinv, err := mat.Inverse(p)
	if err != nil {
		t.Fatal(err)
	}
	dense := p.Mul(a).Mul(pinv)
	eigs := mat.RealEigenvalues(dense).Floats()
	if len(eigs) != 3 {
		t.Fatalf("got %d real eigenvalues: %v", len(eigs), eigs)
	}
	found := map[int]bool{}
	for _, e := range eigs {
		for _, want := range []float64{1, 2, 3} {
			if math.Abs(e-want) < 1e-8 {
				found[int(want)] = true
			}
		}
	}
	if len(found) != 3 {
		t.Fatalf("eigenvalues %v, want {1,2,3}", eigs)
	}
}

func TestPolyEvalAndDerivative(t *testing.T) {
	// p(x) = 2 + 3x + x²
	p := mat.PolyFromFloats(F(0), []float64{2, 3, 1})
	if got := p.Eval(F(2)).Float(); got != 12 {
		t.Errorf("Eval = %g", got)
	}
	d := p.Derivative()
	if got := d.Eval(F(2)).Float(); got != 7 { // 3 + 2x at x=2
		t.Errorf("Derivative Eval = %g", got)
	}
	if p.Degree() != 2 {
		t.Errorf("Degree = %d", p.Degree())
	}
}

func TestPolyArithmetic(t *testing.T) {
	p := mat.PolyFromFloats(F(0), []float64{1, 1})  // 1 + x
	q := mat.PolyFromFloats(F(0), []float64{-1, 1}) // -1 + x
	prod := p.MulPoly(q)                            // x² - 1
	if got := prod.Eval(F(3)).Float(); got != 8 {
		t.Errorf("MulPoly Eval = %g", got)
	}
	sum := p.AddPoly(q) // 2x
	if got := sum.Eval(F(5)).Float(); got != 10 {
		t.Errorf("AddPoly Eval = %g", got)
	}
	diff := p.SubPoly(q) // 2
	if got := diff.Eval(F(100)).Float(); got != 2 {
		t.Errorf("SubPoly Eval = %g", got)
	}
	sc := p.ScalePoly(F(3))
	if got := sc.Eval(F(1)).Float(); got != 6 {
		t.Errorf("ScalePoly Eval = %g", got)
	}
}

func TestQuadraticRoots(t *testing.T) {
	roots := mat.SolveQuadratic(F(1), F(-3), F(2)).Floats() // (x-1)(x-2)
	if len(roots) != 2 {
		t.Fatalf("roots = %v", roots)
	}
	if !(near(roots, 1) && near(roots, 2)) {
		t.Fatalf("roots = %v, want 1 and 2", roots)
	}
	if r := mat.SolveQuadratic(F(1), F(0), F(1)); len(r) != 0 {
		t.Fatalf("x²+1 has no real roots, got %v", r.Floats())
	}
}

func near(roots []float64, want float64) bool {
	for _, r := range roots {
		if math.Abs(r-want) < 1e-9 {
			return true
		}
	}
	return false
}

func TestCubicAndQuarticRoots(t *testing.T) {
	// (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6
	r := mat.PolyFromFloats(F(0), []float64{-6, 11, -6, 1}).RealRoots().Floats()
	for _, want := range []float64{1, 2, 3} {
		if !near(r, want) {
			t.Fatalf("cubic roots = %v, missing %g", r, want)
		}
	}
	// (x²-1)(x²-4) = x⁴ - 5x² + 4
	r4 := mat.PolyFromFloats(F(0), []float64{4, 0, -5, 0, 1}).RealRoots().Floats()
	for _, want := range []float64{-2, -1, 1, 2} {
		if !near(r4, want) {
			t.Fatalf("quartic roots = %v, missing %g", r4, want)
		}
	}
}

func TestHighDegreeRoots(t *testing.T) {
	// Degree-10 polynomial with roots ±1, ±2, ±3, ±4, ±5 — the shape the
	// five-point solver produces.
	p := mat.PolyFromFloats(F(0), []float64{1})
	for _, r := range []float64{1, -1, 2, -2, 3, -3, 4, -4, 5, -5} {
		p = p.MulPoly(mat.PolyFromFloats(F(0), []float64{-r, 1}))
	}
	roots := p.RealRoots().Floats()
	if len(roots) != 10 {
		t.Fatalf("got %d roots: %v", len(roots), roots)
	}
	for _, want := range []float64{1, -1, 2, -2, 3, -3, 4, -4, 5, -5} {
		if !near(roots, want) {
			t.Fatalf("missing root %g in %v", want, roots)
		}
	}
}

func TestMemoryOpAccounting(t *testing.T) {
	a := f64mat([][]float64{{1, 2}, {3, 4}})
	c := profile.Collect(func() {
		_ = a.Mul(a)
	})
	if c.M == 0 {
		t.Error("matrix multiply recorded no memory ops")
	}
	if c.F == 0 {
		t.Error("matrix multiply recorded no float ops")
	}
}

func TestEpsOf(t *testing.T) {
	e64 := mat.EpsOf(F(0)).Float()
	if e64 > 1e-15 || e64 < 1e-17 {
		t.Errorf("float64 eps = %g", e64)
	}
	e32 := mat.EpsOf(scalar.F32(0)).Float()
	if e32 > 1e-6 || e32 < 1e-8 {
		t.Errorf("float32 eps = %g", e32)
	}
	efx := mat.EpsOf(fixed.New(0, 16)).Float()
	if efx > 1.0/(1<<14) || efx <= 0 {
		t.Errorf("q15.16 eps = %g", efx)
	}
}

func TestFixedPointMatrixMath(t *testing.T) {
	like := fixed.New(0, 20)
	a := mat.FromFloats(like, [][]float64{{2, 0}, {0, 3}})
	b := mat.FromFloats(like, [][]float64{{1, 1}, {1, 1}})
	p := a.Mul(b).Floats()
	if math.Abs(p[0][0]-2) > 1e-4 || math.Abs(p[1][1]-3) > 1e-4 {
		t.Fatalf("fixed Mul = %v", p)
	}
	x, err := mat.Solve(a, mat.VecFromFloats(like, []float64{4, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0].Float()-2) > 1e-3 || math.Abs(x[1].Float()-3) > 1e-3 {
		t.Fatalf("fixed Solve = %v", x.Floats())
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestPropTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63()))
		a := randMat(r, 3, 4)
		b := randMat(r, 4, 2)
		lhs := a.Mul(b).Transpose().Floats()
		rhs := b.Transpose().Mul(a.Transpose()).Floats()
		for i := range lhs {
			for j := range lhs[i] {
				if math.Abs(lhs[i][j]-rhs[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: det(A·B) = det(A)·det(B) for square matrices.
func TestPropDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 3, 3)
		b := randMat(r, 3, 3)
		lhs := mat.Det(a.Mul(b)).Float()
		rhs := mat.Det(a).Float() * mat.Det(b).Float()
		return math.Abs(lhs-rhs) <= 1e-9*math.Max(1, math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: SVD singular values of an orthogonal-ish rotation are all 1.
func TestPropRotationSingularValues(t *testing.T) {
	f := func(angle float64) bool {
		if math.IsNaN(angle) || math.IsInf(angle, 0) {
			return true
		}
		c, s := math.Cos(angle), math.Sin(angle)
		rot := f64mat([][]float64{{c, -s}, {s, c}})
		sv := mat.SVD(rot).S.Floats()
		return math.Abs(sv[0]-1) < 1e-10 && math.Abs(sv[1]-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: solving A·x = b then computing A·x recovers b.
func TestPropSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 4, 4).Add(mat.Identity(4, F(0)).Scale(F(5)))
		b := mat.VecFromFloats(F(0), []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()})
		x, err := mat.Solve(a, b)
		if err != nil {
			return true
		}
		return a.MulVec(x).Sub(b).Norm().Float() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
