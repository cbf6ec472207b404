package control

import (
	"repro/internal/mat"
	"repro/internal/scalar"
)

// TinyMPC is the fly-tiny-mpc kernel: the ADMM model-predictive
// controller of Nguyen et al. [48], which caches the infinite-horizon
// LQR solution offline (K∞, P∞, (R+BᵀP∞B)⁻¹, (A−BK∞)ᵀ) so the online
// iteration reduces to Riccati-structured backward/forward passes plus
// slack projection onto the input box.
//
// The paper notes the dense start-up products can exceed the M4's stack
// when the horizon grows; here the caches are built at construction
// (the "offline" phase), and Solve is the measured online kernel.
type TinyMPC[T scalar.Real[T]] struct {
	N    int // horizon length
	n, m int

	a, b    mat.Mat[T]
	kinf    mat.Mat[T] // m×n
	pinf    mat.Mat[T] // n×n
	quuInv  mat.Mat[T] // m×m: (R + BᵀP∞B)⁻¹
	amBKt   mat.Mat[T] // n×n: (A − B·K∞)ᵀ
	q, r    mat.Mat[T] // stage costs
	umin    mat.Vec[T]
	umax    mat.Vec[T]
	rho     T
	maxIter int
	tol     float64

	// Working storage, preallocated (no dynamic allocation per solve).
	x, u, z, y []mat.Vec[T]
	p, qlin    []mat.Vec[T]
	rlin       []mat.Vec[T]
}

// TinyMPCConfig parameterizes the solver.
type TinyMPCConfig struct {
	Horizon  int
	Rho      float64
	MaxIters int
	Tol      float64
	UMin     []float64
	UMax     []float64
}

// DefaultTinyMPCConfig matches the 10-step-horizon configuration of
// Case Study #3.
func DefaultTinyMPCConfig() TinyMPCConfig {
	return TinyMPCConfig{
		Horizon: 10, Rho: 1.0, MaxIters: 50, Tol: 1e-5,
		UMin: []float64{-2, -2}, UMax: []float64{2, 2},
	}
}

// NewTinyMPC builds the controller for the given discrete model and
// stage costs (float64 rows), caching the LQR solution in like's format.
func NewTinyMPC[T scalar.Real[T]](like T, a, b, q, r [][]float64, cfg TinyMPCConfig) (*TinyMPC[T], error) {
	type F = scalar.F64
	// P∞ from the converged Riccati recursion: rebuild it.
	_, pRows, err := riccati(a, b, q, r, 1000)
	if err != nil {
		return nil, err
	}
	fa := mat.FromFloats(F(0), a)
	fb := mat.FromFloats(F(0), b)
	fr := mat.FromFloats(F(0), r)
	p := mat.FromFloats(F(0), pRows)
	// ADMM augments R with ρ on the input block.
	n := fa.Rows()
	m := fb.Cols()
	rAug := fr.Clone()
	for i := 0; i < m; i++ {
		rAug.Set(i, i, rAug.At(i, i).Add(F(cfg.Rho)))
	}
	btp := fb.Transpose().Mul(p)
	quu := btp.Mul(fb).Add(rAug)
	quuInv, err := mat.Inverse(quu)
	if err != nil {
		return nil, err
	}
	kinf := quuInv.Mul(btp).Mul(fa)
	amBK := fa.Sub(fb.Mul(kinf))

	t := &TinyMPC[T]{
		N: cfg.Horizon, n: n, m: m,
		a:       mat.FromFloats(like, a),
		b:       mat.FromFloats(like, b),
		kinf:    mat.FromFloats(like, kinf.Floats()),
		pinf:    mat.FromFloats(like, pRows),
		quuInv:  mat.FromFloats(like, quuInv.Floats()),
		amBKt:   mat.FromFloats(like, amBK.Transpose().Floats()),
		q:       mat.FromFloats(like, q),
		r:       mat.FromFloats(like, r),
		umin:    mat.VecFromFloats(like, cfg.UMin),
		umax:    mat.VecFromFloats(like, cfg.UMax),
		rho:     like.FromFloat(cfg.Rho),
		maxIter: cfg.MaxIters,
		tol:     cfg.Tol,
	}
	t.x = allocVecs[T](cfg.Horizon+1, n)
	t.u = allocVecs[T](cfg.Horizon, m)
	t.z = allocVecs[T](cfg.Horizon, m)
	t.y = allocVecs[T](cfg.Horizon, m)
	t.p = allocVecs[T](cfg.Horizon+1, n)
	t.qlin = allocVecs[T](cfg.Horizon+1, n)
	t.rlin = allocVecs[T](cfg.Horizon, m)
	return t, nil
}

func allocVecs[T scalar.Real[T]](k, dim int) []mat.Vec[T] {
	out := make([]mat.Vec[T], k)
	for i := range out {
		out[i] = make(mat.Vec[T], dim)
	}
	return out
}

// Solve runs the ADMM iteration from state x0 toward reference xref and
// returns the first control move (receding horizon).
func (t *TinyMPC[T]) Solve(x0, xref mat.Vec[T]) (mat.Vec[T], int) {
	like := x0[0]
	zero := scalar.Zero(like)

	// Reset duals and slacks.
	for k := 0; k < t.N; k++ {
		for j := 0; j < t.m; j++ {
			t.z[k][j] = zero
			t.y[k][j] = zero
		}
	}
	// Linear state cost tracks the reference: q_k = -Q·xref.
	qlinRef := t.q.MulVec(xref).Neg()

	iters := 0
	for it := 0; it < t.maxIter; it++ {
		iters++
		// Linear input cost from slack/dual: r_k = -ρ·(z_k - y_k).
		for k := 0; k < t.N; k++ {
			for j := 0; j < t.m; j++ {
				t.rlin[k][j] = t.rho.Mul(t.z[k][j].Sub(t.y[k][j])).Neg()
			}
			copy(t.qlin[k], qlinRef)
		}
		copy(t.qlin[t.N], qlinRef)

		// Backward pass: p_N = q_N; d_k folded into u during forward.
		copy(t.p[t.N], t.qlin[t.N])
		for k := t.N - 1; k >= 0; k-- {
			// p_k = q_k + (A-BK)ᵀ·p_{k+1} − K∞ᵀ·r_k
			kp := t.amBKt.MulVec(t.p[k+1])
			kr := t.kinf.TMulVec(t.rlin[k])
			pk := t.qlin[k].Add(kp).Sub(kr)
			copy(t.p[k], pk)
		}
		// Forward pass.
		copy(t.x[0], x0)
		for k := 0; k < t.N; k++ {
			// d_k = Quu⁻¹·(Bᵀ·p_{k+1} + r_k)
			d := t.quuInv.MulVec(t.b.TMulVec(t.p[k+1]).Add(t.rlin[k]))
			uk := t.kinf.MulVec(t.x[k]).Add(d).Neg()
			copy(t.u[k], uk)
			xn := t.a.MulVec(t.x[k]).Add(t.b.MulVec(uk))
			copy(t.x[k+1], xn)
		}
		// Slack projection and dual update; track both the primal
		// residual (u − z) and the dual residual (z − z_prev): the
		// unconstrained case has zero primal residual immediately while
		// the ρ-biased input still needs dual iterations to converge.
		maxResid := 0.0
		for k := 0; k < t.N; k++ {
			for j := 0; j < t.m; j++ {
				v := t.u[k][j].Add(t.y[k][j])
				zNew := scalar.Clamp(v, t.umin[j], t.umax[j])
				resid := t.u[k][j].Sub(zNew)
				t.y[k][j] = t.y[k][j].Add(resid)
				if r := resid.Abs().Float(); r > maxResid {
					maxResid = r
				}
				if d := zNew.Sub(t.z[k][j]).Abs().Float(); d > maxResid {
					maxResid = d
				}
				t.z[k][j] = zNew
			}
		}
		if maxResid < t.tol {
			break
		}
	}
	// First projected input is the applied command.
	out := make(mat.Vec[T], t.m)
	copy(out, t.z[0])
	return out, iters
}
