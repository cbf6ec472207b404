package control

import (
	"errors"

	"repro/internal/mat"
	"repro/internal/scalar"
)

// QP is the OSQP-style ADMM solver behind bee-mpc:
//
//	minimize    ½·zᵀPz + qᵀz
//	subject to  l ≤ A·z ≤ u
//
// solved by the operator-splitting iteration of Stellato et al. with a
// quasi-definite KKT system factored once (LDLᵀ) and reused every
// iteration — the only control kernel with a general iterative
// optimizer, visible in its instruction mix in the paper.
type QP[T scalar.Real[T]] struct {
	P mat.Mat[T]
	Q mat.Vec[T]
	A mat.Mat[T]
	L mat.Vec[T]
	U mat.Vec[T]

	Sigma   float64
	Rho     float64
	Alpha   float64
	MaxIter int
	EpsAbs  float64
	// WarmX optionally seeds the primal iterate (MPC warm start).
	WarmX mat.Vec[T]
}

// QPResult reports the solution and solver effort.
type QPResult[T scalar.Real[T]] struct {
	Z          mat.Vec[T]
	Iterations int
	PrimalRes  float64
	DualRes    float64
}

// NewQP builds a solver with OSQP's default parameters.
func NewQP[T scalar.Real[T]](p mat.Mat[T], q mat.Vec[T], a mat.Mat[T], l, u mat.Vec[T]) *QP[T] {
	return &QP[T]{
		P: p, Q: q, A: a, L: l, U: u,
		Sigma: 1e-6, Rho: 0.1, Alpha: 1.6, MaxIter: 200, EpsAbs: 1e-5,
	}
}

// Solve runs the ADMM iteration.
func (s *QP[T]) Solve() (QPResult[T], error) {
	n := s.P.Rows()
	m := s.A.Rows()
	like := s.Q[0].FromFloat(1)
	sigma := like.FromFloat(s.Sigma)
	alpha := like.FromFloat(s.Alpha)
	oneMinusAlpha := like.FromFloat(1 - s.Alpha)

	// Per-row step sizes: OSQP boosts ρ by 10³ on equality rows
	// (l == u), which is what makes the stacked-MPC dynamics
	// constraints converge.
	rho := make(mat.Vec[T], m)
	rhoInv := make(mat.Vec[T], m)
	rhoF := make([]float64, m)
	for i := 0; i < m; i++ {
		r := s.Rho
		if s.L[i].Sub(s.U[i]).Abs().Float() < 1e-12 {
			r = s.Rho * 1e3
		}
		rhoF[i] = r
		rho[i] = like.FromFloat(r)
		rhoInv[i] = like.FromFloat(1 / r)
	}

	// KKT matrix: [[P+σI, Aᵀ], [A, −diag(1/ρ)]] — factor once.
	kkt := mat.Zeros[T](n+m, n+m)
	kkt.SetSubmatrix(0, 0, s.P)
	for i := 0; i < n; i++ {
		kkt.Set(i, i, kkt.At(i, i).Add(sigma))
	}
	kkt.SetSubmatrix(0, n, s.A.Transpose())
	kkt.SetSubmatrix(n, 0, s.A)
	for i := 0; i < m; i++ {
		kkt.Set(n+i, n+i, rhoInv[i].Neg())
	}
	ldlt, err := mat.LDLTDecompose(kkt)
	if err != nil {
		return QPResult[T]{}, errors.New("control: KKT factorization failed")
	}

	x := mat.ZeroVec[T](n)
	if s.WarmX != nil && len(s.WarmX) == n {
		x = s.WarmX.Clone()
	}
	z := s.A.MulVec(x)
	for i := 0; i < m; i++ {
		z[i] = scalar.Clamp(z[i], s.L[i], s.U[i])
	}
	y := mat.ZeroVec[T](m)
	rhs := mat.ZeroVec[T](n + m)

	res := QPResult[T]{}
	for it := 0; it < s.MaxIter; it++ {
		res.Iterations = it + 1
		// RHS: [σ·x − q ; z − y/ρ]
		for i := 0; i < n; i++ {
			rhs[i] = sigma.Mul(x[i]).Sub(s.Q[i])
		}
		for i := 0; i < m; i++ {
			rhs[n+i] = z[i].Sub(rhoInv[i].Mul(y[i]))
		}
		sol := ldlt.Solve(rhs)
		xt := sol[:n]
		nu := sol[n:]
		// ẑ = z + (ν − y)/ρ
		zt := make(mat.Vec[T], m)
		for i := 0; i < m; i++ {
			zt[i] = z[i].Add(rhoInv[i].Mul(nu[i].Sub(y[i])))
		}
		// Relaxed updates with projection onto [l, u].
		xNew := make(mat.Vec[T], n)
		for i := 0; i < n; i++ {
			xNew[i] = alpha.Mul(xt[i]).Add(oneMinusAlpha.Mul(x[i]))
		}
		zPrev := z.Clone()
		zNew := make(mat.Vec[T], m)
		for i := 0; i < m; i++ {
			v := alpha.Mul(zt[i]).Add(oneMinusAlpha.Mul(z[i])).Add(rhoInv[i].Mul(y[i]))
			zNew[i] = scalar.Clamp(v, s.L[i], s.U[i])
			y[i] = y[i].Add(rho[i].Mul(alpha.Mul(zt[i]).Add(oneMinusAlpha.Mul(z[i])).Sub(zNew[i])))
		}
		x = xNew
		z = zNew

		// Residuals: primal |A·x − z|∞, dual ρ·|A ᵀ(z − zprev)|∞ proxy.
		ax := s.A.MulVec(x)
		primal := 0.0
		for i := 0; i < m; i++ {
			if d := ax[i].Sub(z[i]).Abs().Float(); d > primal {
				primal = d
			}
		}
		dual := 0.0
		dzr := z.Sub(zPrev)
		for i := 0; i < m; i++ {
			dzr[i] = dzr[i].Mul(rho[i])
		}
		dz := s.A.TMulVec(dzr)
		for i := 0; i < n; i++ {
			if d := dz[i].Abs().Float(); d > dual {
				dual = d
			}
		}
		res.PrimalRes, res.DualRes = primal, dual
		if primal < s.EpsAbs && dual < s.EpsAbs {
			break
		}
	}
	res.Z = x
	return res, nil
}
