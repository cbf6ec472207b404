package control

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/scalar"
)

// riccatiMat is the Riccati iteration written on mat.Mat[scalar.F64]:
// the reference riccati must reproduce bit for bit.
func riccatiMat(a, b, q, r [][]float64, maxIter int) (k, p mat.Mat[scalar.F64], err error) {
	type F = scalar.F64
	fa := mat.FromFloats(F(0), a)
	fb := mat.FromFloats(F(0), b)
	fq := mat.FromFloats(F(0), q)
	fr := mat.FromFloats(F(0), r)
	p = fq.Clone()
	for it := 0; it < maxIter; it++ {
		btp := fb.Transpose().Mul(p)
		s := btp.Mul(fb).Add(fr)
		sinv, invErr := mat.Inverse(s)
		if invErr != nil {
			return k, p, invErr
		}
		k = sinv.Mul(btp).Mul(fa)
		pNew := fq.Add(fa.Transpose().Mul(p).Mul(fa.Sub(fb.Mul(k))))
		diff := pNew.Sub(p).MaxAbs().Float()
		p = pNew
		if diff < 1e-12 {
			break
		}
	}
	return k, p, nil
}

// sameBits reports the first element where got and want differ in
// their float64 bits.
func sameBits(t *testing.T, what string, got [][]float64, want mat.Mat[scalar.F64]) {
	t.Helper()
	w := want.Floats()
	if len(got) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(w))
	}
	for i := range w {
		for j := range w[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(w[i][j]) {
				t.Fatalf("%s[%d][%d] = %v (%#x), oracle %v (%#x)", what, i, j,
					got[i][j], math.Float64bits(got[i][j]), w[i][j], math.Float64bits(w[i][j]))
			}
		}
	}
}

func checkRiccati(t *testing.T, a, b, q, r [][]float64, maxIter int) {
	t.Helper()
	k, p, err := riccati(a, b, q, r, maxIter)
	wk, wp, werr := riccatiMat(a, b, q, r, maxIter)
	if (err == nil) != (werr == nil) {
		t.Fatalf("error %v, oracle %v", err, werr)
	}
	if err != nil {
		return
	}
	sameBits(t, "K", k, wk)
	sameBits(t, "P", p, wp)
}

func TestRiccatiMatchesMatLoopFlyModel(t *testing.T) {
	for _, step := range []float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.05} {
		a, b, q, r := FlyModel(step)
		for _, maxIter := range []int{1, 7, 1000, 2000} {
			checkRiccati(t, a, b, q, r, maxIter)
		}
	}
}

// randomSystem draws an n-state, m-input system: A near the identity
// (some modes unstable), dense B, Q = GᵀG + I and a positive diagonal R.
func randomSystem(rng *rand.Rand, n, m int) (a, b, q, r [][]float64) {
	rows := func(rr, cc int, f func(i, j int) float64) [][]float64 {
		out := make([][]float64, rr)
		for i := range out {
			out[i] = make([]float64, cc)
			for j := range out[i] {
				out[i][j] = f(i, j)
			}
		}
		return out
	}
	a = rows(n, n, func(i, j int) float64 {
		v := 0.2 * rng.NormFloat64()
		if i == j {
			v += 1
		}
		return v
	})
	b = rows(n, m, func(int, int) float64 { return rng.NormFloat64() })
	g := rows(n, n, func(int, int) float64 { return rng.NormFloat64() })
	q = rows(n, n, func(i, j int) float64 {
		var s float64
		for k := 0; k < n; k++ {
			s += g[k][i] * g[k][j]
		}
		if i == j {
			s++
		}
		return s
	})
	r = rows(m, m, func(i, j int) float64 {
		if i == j {
			return 0.1 + rng.Float64()
		}
		return 0
	})
	return a, b, q, r
}

func TestRiccatiMatchesMatLoopRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		a, b, q, r := randomSystem(rng, n, m)
		checkRiccati(t, a, b, q, r, 50+rng.Intn(400))
	}
}

// TestRiccatiSingular: a zero B with a zero R makes R + BᵀPB singular on
// the first step; riccati reports mat.ErrSingular, and each caller keeps
// its own error behaviour.
func TestRiccatiSingular(t *testing.T) {
	a, _, q, _ := FlyModel(0.002)
	b := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	r := [][]float64{{0, 0}, {0, 0}}
	checkRiccati(t, a, b, q, r, 2000)
	if _, _, err := riccati(a, b, q, r, 2000); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("riccati error %v, want mat.ErrSingular", err)
	}
	// A singular block that only one input direction exposes.
	_, b2, _, _ := FlyModel(0.002)
	for i := range b2 {
		b2[i][1] = 0
	}
	r2 := [][]float64{{1, 0}, {0, 0}}
	checkRiccati(t, a, b2, q, r2, 2000)
	if _, _, err := riccati(a, b2, q, r2, 2000); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("riccati error %v with a zero row and column in R + BᵀPB, want mat.ErrSingular", err)
	}

	if _, err := NewLQR(scalar.F64(0), a, b, q, r); err == nil || err.Error() != "control: DARE iteration hit singular R + BᵀPB" {
		t.Errorf("NewLQR error %v", err)
	}
	if _, err := NewTinyMPC(scalar.F64(0), a, b, q, r, DefaultTinyMPCConfig()); !errors.Is(err, mat.ErrSingular) {
		t.Errorf("NewTinyMPC error %v, want mat.ErrSingular", err)
	}
	bee := NewBeeMPC(scalar.F64(0), a, b, q, r, DefaultBeeMPCConfig())
	if bee.kinf != nil || &bee.pT[0][0] != &q[0][0] {
		t.Error("NewBeeMPC should fall back to the stage cost Q and no warm-start gain")
	}
}
