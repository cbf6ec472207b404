package mat

// Differential tests for the bulk-accounting fast paths: every
// specialized operation is run twice — fast and with
// SetReferenceKernels(true) — and must produce bit-identical numeric
// results, byte-identical profile.Counts and identical errors across the
// data-dependent control-flow paths (pivot swaps, singular matrices,
// non-positive-definite inputs, zero Householder columns). For F32 and
// F64 that pits the native bodies against the hooked ones. Fixed point
// takes the hooked bodies in both modes, so its runs pin that the mode
// switch leaves its counts, results and Status side effects alone.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fixed"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// lcg is a tiny deterministic value source; values are multiples of
// 1/64 in roughly [-2, 2] so they are exactly representable in every
// scalar type under test.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(int64(*g>>33)%257-128) / 64
}

func (g *lcg) mat(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		row := make([]float64, cols)
		for j := range row {
			row[j] = g.next()
		}
		out[i] = row
	}
	return out
}

func (g *lcg) vec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// spd returns a symmetric positive-definite matrix: G·Gᵀ + n·I.
func spd(g *lcg, n int) [][]float64 {
	gm := g.mat(n, n)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			var s float64
			for k := 0; k < n; k++ {
				s += gm[i][k] * gm[j][k]
			}
			if i == j {
				s += float64(n)
			}
			out[i][j] = s
		}
	}
	return out
}

// bitsOf encodes a scalar so equality means bit-identity (format
// included for fixed point).
func bitsOf[T scalar.Real[T]](v T) uint64 {
	switch x := any(v).(type) {
	case scalar.F32:
		return uint64(math.Float32bits(float32(x)))
	case scalar.F64:
		return math.Float64bits(float64(x))
	case fixed.Num:
		return uint64(x.FracBits())<<40 | uint64(uint32(int32(x.Raw())))
	}
	panic("bitsOf: unsupported scalar")
}

func fingerprint[T scalar.Real[T]](vs []T) string {
	s := ""
	for _, v := range vs {
		s += fmt.Sprintf("%x.", bitsOf(v))
	}
	return s
}

// diffRun executes op once with the fast paths and once against the
// hooked reference oracle, asserting identical counts, fixed-point
// status, and fingerprints. op returns a fingerprint of every numeric
// output (and error text) it produced.
func diffRun(t *testing.T, name string, op func() string) {
	t.Helper()
	fixed.ResetStatus()
	var fastFP string
	fastCnt := profile.Collect(func() { fastFP = op() })
	fastStatus := fixed.ResetStatus()

	prev := SetReferenceKernels(true)
	var refFP string
	refCnt := profile.Collect(func() { refFP = op() })
	SetReferenceKernels(prev)
	refStatus := fixed.ResetStatus()

	if fastCnt != refCnt {
		t.Errorf("%s: counts diverge: fast=%+v reference=%+v", name, fastCnt, refCnt)
	}
	if fastStatus != refStatus {
		t.Errorf("%s: fixed-point status diverges: fast=%+v reference=%+v", name, fastStatus, refStatus)
	}
	if fastFP != refFP {
		t.Errorf("%s: results diverge:\nfast      %s\nreference %s", name, fastFP, refFP)
	}
}

func errFP(err error) string {
	if err == nil {
		return "ok"
	}
	return "err:" + err.Error()
}

// diffSuite exercises every specialized operation for one scalar type.
func diffSuite[T scalar.Real[T]](t *testing.T, like T) {
	g := lcg(12345)
	a := FromFloats(like, g.mat(5, 5))
	b := FromFloats(like, g.mat(5, 5))
	rect := FromFloats(like, g.mat(7, 4))
	v5 := VecFromFloats(like, g.vec(5))
	w5 := VecFromFloats(like, g.vec(5))
	v7 := VecFromFloats(like, g.vec(7))
	s := like.FromFloat(g.next())

	diffRun(t, "Mat.Add", func() string { return fingerprint(a.Add(b).d) })
	diffRun(t, "Mat.Sub", func() string { return fingerprint(a.Sub(b).d) })
	diffRun(t, "Mat.Scale", func() string { return fingerprint(a.Scale(s).d) })
	diffRun(t, "Mat.Mul", func() string { return fingerprint(a.Mul(b).d) })
	diffRun(t, "Mat.Mul/rect", func() string { return fingerprint(rect.Transpose().Mul(rect).d) })
	diffRun(t, "Mat.MulVec", func() string { return fingerprint([]T(a.MulVec(v5))) })
	diffRun(t, "Mat.Transpose", func() string { return fingerprint(rect.Transpose().d) })
	diffRun(t, "Mat.TMulVec", func() string { return fingerprint([]T(rect.TMulVec(v7))) })
	diffRun(t, "Mat.FrobNorm", func() string { return fingerprint([]T{a.FrobNorm()}) })
	diffRun(t, "Mat.MaxAbs", func() string { return fingerprint([]T{a.MaxAbs()}) })

	diffRun(t, "Vec.Add", func() string { return fingerprint([]T(v5.Add(w5))) })
	diffRun(t, "Vec.Sub", func() string { return fingerprint([]T(v5.Sub(w5))) })
	diffRun(t, "Vec.Scale", func() string { return fingerprint([]T(v5.Scale(s))) })
	diffRun(t, "Vec.Dot", func() string { return fingerprint([]T{v5.Dot(w5)}) })
	diffRun(t, "Vec.Neg", func() string { return fingerprint([]T(v5.Neg())) })
	diffRun(t, "Vec.MaxAbs", func() string { return fingerprint([]T{v5.MaxAbs()}) })
	diffRun(t, "Vec.Norm", func() string { return fingerprint([]T{v5.Norm()}) })
	diffRun(t, "Vec.Normalized", func() string { return fingerprint([]T(v5.Normalized())) })

	// LU: the generated matrix exercises pivot swaps; assert identical
	// packed factors, pivots, and solve results.
	diffRun(t, "LU", func() string {
		f, err := LUDecompose(a)
		if err != nil {
			return errFP(err)
		}
		return fingerprint(f.lu.d) + fmt.Sprint(f.pivot, f.sign) + fingerprint([]T(f.Solve(v5)))
	})
	// A small leading pivot forces a swap on the first column.
	swapper := FromFloats(like, [][]float64{
		{0.015625, 1, 0.5},
		{2, -0.25, 1},
		{0.5, 1, -1.5},
	})
	diffRun(t, "LU/pivot-swap", func() string {
		f, err := LUDecompose(swapper)
		if err != nil {
			return errFP(err)
		}
		return fingerprint(f.lu.d) + fmt.Sprint(f.pivot, f.sign)
	})
	// Duplicate rows hit the singular early-return mid-factorization;
	// the partial charges must match too.
	singular := FromFloats(like, [][]float64{
		{1, 2, 0.5},
		{1, 2, 0.5},
		{-0.5, 1, 0.25},
	})
	diffRun(t, "LU/singular", func() string {
		_, err := LUDecompose(singular)
		return errFP(err)
	})

	posdef := FromFloats(like, spd(&g, 5))
	diffRun(t, "LDLT", func() string {
		f, err := LDLTDecompose(posdef)
		if err != nil {
			return errFP(err)
		}
		return fingerprint(f.l.d) + fingerprint([]T(f.d)) + fingerprint([]T(f.Solve(v5)))
	})
	// A quasi-definite KKT matrix [[P+I, Aᵀ], [A, −I]], the shape the QP
	// solver factors: the solve charges its counts in closed form and
	// reads the stored Lᵀ.
	kkt := quasiDefinite(&g, 6, 4)
	rhs := VecFromFloats(like, g.vec(10))
	kktF := FromFloats(like, kkt)
	diffRun(t, "LDLT/kkt", func() string {
		f, err := LDLTDecompose(kktF)
		if err != nil {
			return errFP(err)
		}
		return fingerprint(f.l.d) + fingerprint([]T(f.d)) + fingerprint([]T(f.Solve(rhs)))
	})
	if f, err := LDLTDecompose(kktF); err == nil {
		diffRun(t, "LDLT.Solve", func() string { return fingerprint([]T(f.Solve(rhs))) })
	}
	diffRun(t, "LDLT/singular", func() string {
		_, err := LDLTDecompose(FromFloats(like, [][]float64{{0, 1}, {1, 0}}))
		return errFP(err)
	})

	diffRun(t, "QR", func() string {
		f, err := QRDecompose(rect)
		if err != nil {
			return errFP(err)
		}
		x, err := f.Solve(v7)
		if err != nil {
			return errFP(err)
		}
		return fingerprint(f.qr.d) + fingerprint([]T(f.rdiag)) + fingerprint([]T(x))
	})
	// A zero column exercises the rank-deficient continue path, and the
	// sign-flip branch fires when the diagonal starts negative.
	zeroCol := g.mat(5, 3)
	for i := range zeroCol {
		zeroCol[i][1] = 0
	}
	zeroCol[0][0] = -math.Abs(zeroCol[0][0]) - 1
	b5 := VecFromFloats(like, g.vec(5))
	diffRun(t, "QR/rank-deficient", func() string {
		f, err := QRDecompose(FromFloats(like, zeroCol))
		if err != nil {
			return errFP(err)
		}
		_, serr := f.Solve(b5)
		return fingerprint(f.qr.d) + fingerprint([]T(f.rdiag)) + errFP(serr)
	})

	svdFP := func(r SVDResult[T]) string {
		return fingerprint(r.U.d) + fingerprint([]T(r.S)) + fingerprint(r.V.d)
	}
	diffRun(t, "SVD", func() string { return svdFP(SVD(rect)) })
	// The wide input takes the transpose/swap recursion; a rank-deficient
	// one exercises the zero-singular-value skip in the norm pass.
	diffRun(t, "SVD/wide", func() string { return svdFP(SVD(rect.Transpose())) })
	diffRun(t, "SVD/rank-deficient", func() string {
		return svdFP(SVD(FromFloats(like, zeroCol)))
	})
	diffRun(t, "NullVector", func() string {
		return fingerprint([]T(NullVector(rect)))
	})
}

// quasiDefinite returns [[GᵀG + I, Aᵀ], [A, −I]] for an n-column
// cost block and m constraint rows.
func quasiDefinite(g *lcg, n, m int) [][]float64 {
	p := spd(g, n)
	a := g.mat(m, n)
	out := make([][]float64, n+m)
	for i := range out {
		out[i] = make([]float64, n+m)
	}
	for i := 0; i < n; i++ {
		copy(out[i], p[i])
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[n+i][j] = a[i][j]
			out[j][n+i] = a[i][j]
		}
		out[n+i][n+i] = -1
	}
	return out
}

// tMulVecAgainstTranspose checks, in the current kernel mode, that
// m.TMulVec(v) returns the bits and charges the counts of
// m.Transpose().MulVec(v).
func tMulVecAgainstTranspose[T scalar.Real[T]](t *testing.T, like T) {
	t.Helper()
	g := lcg(777)
	for _, shape := range [][2]int{{1, 1}, {3, 3}, {7, 4}, {4, 7}, {12, 9}} {
		m := FromFloats(like, g.mat(shape[0], shape[1]))
		v := VecFromFloats(like, g.vec(shape[0]))
		var got, want Vec[T]
		fixed.ResetStatus()
		gotCnt := profile.Collect(func() { got = m.TMulVec(v) })
		gotStatus := fixed.ResetStatus()
		wantCnt := profile.Collect(func() { want = m.Transpose().MulVec(v) })
		wantStatus := fixed.ResetStatus()
		if gotCnt != wantCnt {
			t.Errorf("%v: TMulVec counts %+v, Transpose().MulVec %+v", shape, gotCnt, wantCnt)
		}
		if gotStatus != wantStatus {
			t.Errorf("%v: TMulVec status %+v, Transpose().MulVec %+v", shape, gotStatus, wantStatus)
		}
		if fingerprint([]T(got)) != fingerprint([]T(want)) {
			t.Errorf("%v: TMulVec %v, Transpose().MulVec %v", shape, got.Floats(), want.Floats())
		}
	}
}

func TestTMulVecMatchesTransposeMulVec(t *testing.T) {
	for _, ref := range []bool{false, true} {
		prev := SetReferenceKernels(ref)
		t.Run(fmt.Sprintf("reference=%v", ref), func(t *testing.T) {
			t.Run("f32", func(t *testing.T) { tMulVecAgainstTranspose(t, scalar.F32(0)) })
			t.Run("f64", func(t *testing.T) { tMulVecAgainstTranspose(t, scalar.F64(0)) })
			t.Run("q16.15", func(t *testing.T) { tMulVecAgainstTranspose(t, fixed.New(0, 15)) })
		})
		SetReferenceKernels(prev)
	}
}

// TestLDLTSolveAcrossModes: a factor made by the reference loop carries
// no Lᵀ, so a fast-mode solve of it falls back to the hooked loop; both
// give the fast factor's solve bit for bit, count for count.
func TestLDLTSolveAcrossModes(t *testing.T) {
	g := lcg(99)
	a := FromFloats(scalar.F32(0), quasiDefinite(&g, 5, 3))
	b := VecFromFloats(scalar.F32(0), g.vec(8))
	fast, err := LDLTDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetReferenceKernels(true)
	ref, err := LDLTDecompose(a)
	SetReferenceKernels(prev)
	if err != nil {
		t.Fatal(err)
	}
	if ref.lt != nil {
		t.Fatal("reference factorization stored an Lᵀ")
	}
	var x, y Vec[scalar.F32]
	cx := profile.Collect(func() { x = fast.Solve(b) })
	cy := profile.Collect(func() { y = ref.Solve(b) })
	if cx != cy || fingerprint([]scalar.F32(x)) != fingerprint([]scalar.F32(y)) {
		t.Errorf("solve of the reference factor diverges: counts %+v vs %+v, x %v vs %v", cx, cy, x, y)
	}
	n := uint64(8)
	if want := (profile.Counts{F: 2*n*(n-1) + n, I: n * (n - 1), M: n * (n - 1)}); cx != want {
		t.Errorf("LDLT solve counts %+v, want closed form %+v", cx, want)
	}
}

func TestFastPathsDifferential(t *testing.T) {
	t.Run("f32", func(t *testing.T) { diffSuite(t, scalar.F32(0)) })
	t.Run("f64", func(t *testing.T) { diffSuite(t, scalar.F64(0)) })
	t.Run("q16.15", func(t *testing.T) { diffSuite(t, fixed.New(0, 15)) })
	t.Run("q8.23", func(t *testing.T) { diffSuite(t, fixed.New(0, 23)) })
}

// TestReferenceKernelsSwitch pins the oracle-switch semantics the
// differential tests depend on.
func TestReferenceKernelsSwitch(t *testing.T) {
	if ReferenceKernels() {
		t.Fatal("reference mode should be off by default")
	}
	prev := SetReferenceKernels(true)
	if prev {
		t.Fatal("SetReferenceKernels(true) reported reference mode already on")
	}
	if !ReferenceKernels() {
		t.Fatal("reference mode did not engage")
	}
	SetReferenceKernels(prev)
	if ReferenceKernels() {
		t.Fatal("reference mode did not disengage")
	}
}

// TestFastPathCustomScalarFallsBack checks that scalar types other
// than F32 and F64 — a custom Real and fixed.Num — take the hooked
// generic path, and work through it, even with fast kernels enabled.
func TestFastPathCustomScalarFallsBack(t *testing.T) {
	t.Run("custom", func(t *testing.T) { hookedMul(t, customReal{}) })
	t.Run("q16.15", func(t *testing.T) { hookedMul(t, fixed.New(0, 15)) })
}

func hookedMul[T scalar.Real[T]](t *testing.T, like T) {
	if nativeOf[T]() {
		t.Fatalf("%T takes the native bodies", like)
	}
	a := FromFloats(like, [][]float64{{1, 2}, {3, 4}})
	b := FromFloats(like, [][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i, row := range got.Floats() {
		for j, v := range row {
			if v != want[i][j] {
				t.Fatalf("%T Mul[%d][%d] = %v, want %v", like, i, j, v, want[i][j])
			}
		}
	}
}

// customReal wraps a float64 without belonging to the built-in scalar
// family, so every fast dispatcher must reject it.
type customReal struct{ v float64 }

func (a customReal) Add(b customReal) customReal  { return customReal{a.v + b.v} }
func (a customReal) Sub(b customReal) customReal  { return customReal{a.v - b.v} }
func (a customReal) Mul(b customReal) customReal  { return customReal{a.v * b.v} }
func (a customReal) Div(b customReal) customReal  { return customReal{a.v / b.v} }
func (a customReal) Neg() customReal              { return customReal{-a.v} }
func (a customReal) Abs() customReal              { return customReal{math.Abs(a.v)} }
func (a customReal) Sqrt() customReal             { return customReal{math.Sqrt(a.v)} }
func (a customReal) Less(b customReal) bool       { return a.v < b.v }
func (a customReal) LessEq(b customReal) bool     { return a.v <= b.v }
func (a customReal) IsZero() bool                 { return a.v == 0 }
func (a customReal) Float() float64               { return a.v }
func (customReal) FromFloat(x float64) customReal { return customReal{x} }
