package mat

// Oracle tests for the native eigen loops (fast_eig.go): each runs once
// natively and once with SetReferenceKernels(true), where the hooked
// bodies (hessenbergEigenHooked, hessenbergHooked, realRootsHooked,
// symEigenHooked) do the work, and must agree in every bit and count.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/fixed"
	"repro/internal/scalar"
)

// suitePolys are polynomials the suite's minimal solvers hand to
// RealRoots (F32, coefficients of x^0 first): p3p's quartic, u3pt's
// sextic and two of rel-lo-ransac's.
var suitePolys = [][]float64{
	{0.6634318232536316, 1.8869296312332153, -7.3187255859375, 6.864335060119629, -1.9386628866195679},
	{5.920621697441675e-05, -0.0008638922008685768, 0.004172911401838064, -0.006969304755330086,
		0.002811465412378311, -0.006105411797761917, -0.0013022427447140217},
	{0.12062329798936844, -0.03557366132736206, -1.778688907623291, -0.3252767324447632,
		-1.7428724765777588, -0.2897031009197235, 0.15643976628780365},
	{3.170130730723031e-05, -0.0002710538392420858, 0.000338271027430892, 0.0009547285735607147,
		0.0005760584026575089, 0.0012257827911525965, 0.00026948831509798765},
}

// edgePolys drive the QR iteration's edge paths: a zero leading
// coefficient, repeated and clustered roots (deflation ties), an
// all-zero and a constant polynomial, an x^k factor (zero companion
// rows), complex-only roots, coefficients at 1e±30, and a NaN and an
// Inf coefficient (a NaN never deflates, so it runs to the its == 60
// bail-out).
var edgePolys = [][]float64{
	{1, -3, 3, -1, 0},       // (x-1)³, zero leading coefficient
	{1, -4, 6, -4, 1},       // (x-1)⁴
	{0, 0, 0, 0},            // all zero
	{3, 0, 0, 0},            // constant
	{0, 0, 0, 1},            // x³
	{1, 0, 0, 0, 1},         // x⁴+1, no real root
	{-1, 0, 0, 0, 0, 0, 1},  // x⁶-1
	{1e30, -1e30, 1e-30, 1}, // wild scales
	{1e-30, 1e-30, 1e-30, 1e-30, 1e-30},
	{2, -1e30, 1e30, -3, 1e-30, 1},
	{1, 0, -10, 0, 9, 0, -1, 0, 0.5, 0, 1e-8}, // degree 10, near-singular leading term
	{1, math.NaN(), 2, 1},
	{math.Inf(1), 1, 0, 1},
}

// nanFP is fingerprint with every NaN folded to one token, so payload
// bits never decide a comparison.
func nanFP[T scalar.Real[T]](vs []T) string {
	s := ""
	for _, v := range vs {
		if f := v.Float(); f != f {
			s += "nan."
			continue
		}
		s += fmt.Sprintf("%x.", bitsOf(v))
	}
	return s
}

func checkRealRoots[T scalar.Real[T]](t *testing.T, like T, coeffs []float64) {
	t.Helper()
	p := PolyFromFloats(like, coeffs)
	diffRun(t, fmt.Sprintf("%T RealRoots%v", like, coeffs), func() string {
		return nanFP(p.RealRoots())
	})
}

func TestRealRootsMatchesHooked(t *testing.T) {
	g := lcg(5)
	var polys [][]float64
	polys = append(polys, suitePolys...)
	polys = append(polys, edgePolys...)
	for d := 3; d <= 10; d++ {
		for k := 0; k < 8; k++ {
			polys = append(polys, g.vec(d+1))
		}
	}
	for _, c := range polys {
		checkRealRoots(t, scalar.F32(0), c)
		checkRealRoots(t, scalar.F64(0), c)
	}
	for _, c := range suitePolys[:1] {
		checkRealRoots(t, fixed.New(0, 16), c)
	}
}

// fivePtAction is one action matrix the 5pt solver builds (F32).
var fivePtAction = [][]float64{
	{-4.451938629150391, -15.412105560302734, 10.2365083694458, 8.045859336853027, -4.386160850524902, 0.5128822326660156, 18.008798599243164, -12.530858039855957, 14.418704986572266, 4.757547378540039},
	{0.5616924166679382, -2.1801633834838867, 1.6310656070709229, 0.7023648023605347, 0.09179091453552246, 0.11178255081176758, 2.390786647796631, -1.2855470180511475, 1.5143675804138184, 0.8359003067016602},
	{1.88755202293396, -10.861112594604492, -5.283790111541748, 4.550460338592529, 1.9922256469726562, 0.6920585632324219, 9.605600357055664, -8.187467575073242, 4.829868316650391, 4.563990592956543},
	{-0.13162118196487427, 2.038465976715088, 0.026820331811904907, -1.0528634786605835, 1.2225123643875122, 0.06698322296142578, -1.2503184080123901, 1.3033039569854736, -0.9565325379371643, 0.16575825214385986},
	{0.35380634665489197, -1.3502930402755737, 0.5093432068824768, 0.1314580887556076, -0.6159193515777588, -0.02872443199157715, 1.7158126831054688, -0.5278843641281128, 0.38390588760375977, 0.37674441933631897},
	{-0.25929731130599976, -2.678103446960449, 0.2502087652683258, 1.51563560962677, -0.7220698595046997, -0.07607126235961914, 2.952183723449707, -2.3666417598724365, 2.1834168434143066, 0.8277338147163391},
	{1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	{0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	{0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
	{0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
}

func checkHessenbergEigen[T scalar.Real[T]](t *testing.T, like T, rows [][]float64) {
	t.Helper()
	a := FromFloats(like, rows)
	diffRun(t, fmt.Sprintf("%T Hessenberg+HessenbergEigen %dx%d", like, len(rows), len(rows)), func() string {
		h := Hessenberg(a)
		fp := nanFP(h.d)
		eig := HessenbergEigen(h)
		return fp + "|" + nanFP(eig.Re) + "|" + nanFP(eig.Im) + "|" + nanFP(RealEigenvalues(a))
	})
}

func TestHessenbergEigenMatchesHooked(t *testing.T) {
	g := lcg(9)
	mats := [][][]float64{fivePtAction, {{0, 0}, {0, 0}}, {{2}}}
	for n := 2; n <= 10; n++ {
		mats = append(mats, g.mat(n, n))
	}
	// Rotation blocks force complex pairs; a nilpotent shift matrix
	// never deflates early and reaches the exceptional shifts.
	mats = append(mats, [][]float64{{0, -1, 0}, {1, 0, 0}, {0, 0, 3}})
	shift := make([][]float64, 8)
	for i := range shift {
		shift[i] = make([]float64, 8)
		if i > 0 {
			shift[i][i-1] = 1
		}
	}
	shift[0][7] = 1
	mats = append(mats, shift)
	for _, m := range mats {
		checkHessenbergEigen(t, scalar.F32(0), m)
		checkHessenbergEigen(t, scalar.F64(0), m)
	}
}

func TestSymEigenMatchesHooked(t *testing.T) {
	g := lcg(13)
	var mats [][][]float64
	for n := 1; n <= 9; n++ {
		mats = append(mats, spd(&g, n))
		// Gram matrix of a wide system, the NullSpace case.
		w := FromFloats(scalar.F64(0), g.mat(max(n-2, 1), n))
		mats = append(mats, w.Transpose().Mul(w).Floats())
	}
	mats = append(mats, [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}, [][]float64{{3, 0}, {0, -2}})
	run := func(like any, rows [][]float64) {
		switch l := like.(type) {
		case scalar.F32:
			a := FromFloats(l, rows)
			diffRun(t, fmt.Sprintf("F32 SymEigen %d", len(rows)), func() string {
				r := SymEigen(a)
				return nanFP(r.W) + "|" + nanFP(r.V.d)
			})
		case scalar.F64:
			a := FromFloats(l, rows)
			diffRun(t, fmt.Sprintf("F64 SymEigen %d", len(rows)), func() string {
				r := SymEigen(a)
				return nanFP(r.W) + "|" + nanFP(r.V.d) + "|" + nanFP(NullVector(a))
			})
		}
	}
	for _, m := range mats {
		run(scalar.F32(0), m)
		run(scalar.F64(0), m)
	}
}

// polyBytes encodes coefficients as the fuzz target reads them.
func polyBytes(coeffs []float64) []byte {
	b := make([]byte, 8*len(coeffs))
	for i, c := range coeffs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(c))
	}
	return b
}

// FuzzRealRoots holds the native RealRoots (and through it the native
// HessenbergEigen) to the hooked body for arbitrary coefficient
// vectors of up to eleven coefficients, in both float types: the same
// roots bit for bit, NaN matching NaN, and the same counts.
func FuzzRealRoots(f *testing.F) {
	for _, c := range suitePolys {
		f.Add(polyBytes(c))
	}
	for _, c := range edgePolys {
		f.Add(polyBytes(c))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := min(len(b)/8, 11)
		coeffs := make([]float64, n)
		for i := range coeffs {
			coeffs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkRealRoots(t, scalar.F32(0), coeffs)
		checkRealRoots(t, scalar.F64(0), coeffs)
	})
}
