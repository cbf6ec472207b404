package control

import (
	"errors"

	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

var errKKT = errors.New("control: KKT factorization failed")

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

// Solve runs the ADMM iteration: natively (solveNat), charging the
// hooked body's mix, or through the hooked body, solveHooked, as the
// mat package's fast-path rule picks.
func (s *QP[T]) Solve() (QPResult[T], error) {
	if !mat.ReferenceKernels() {
		switch sp := any(s).(type) {
		case *QP[scalar.F32]:
			r, err := solveNat(sp)
			return any(r).(QPResult[T]), err
		case *QP[scalar.F64]:
			r, err := solveNat(sp)
			return any(r).(QPResult[T]), err
		}
	}
	return s.solveHooked()
}

// solveHooked is Solve through the hooked matrix and scalar layers.
func (s *QP[T]) solveHooked() (QPResult[T], error) {
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
		return QPResult[T]{}, errKKT
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

// clampNat is scalar.Clamp on native floats; it returns the compares
// the hooked Clamp charges (one when x < lo, else two).
func clampNat[F scalar.Native[F]](x, lo, hi F) (F, uint64) {
	if x < lo {
		return lo, 1
	}
	if hi < x {
		return hi, 2
	}
	return x, 2
}

func absF[F scalar.Native[F]](v F) F {
	if v < 0 {
		return -v
	}
	return v
}

// solveNat is solveHooked with its scalar loops and KKT assembly on
// native floats, in the same order, so every iterate is bit-identical.
// The LDLT factor and solve and the A products still go through mat,
// whose fast paths charge their own mix; everything else is tallied
// here (f: F ops, mem: element accesses at one M and one I each, b: B
// ops, cl: the M-only moves of Vec.Clone and Vec.Sub) and charged in one
// AddCounts, also on the error return. The iterates live in reused
// buffers where the hooked body allocates a fresh vector per step.
func solveNat[F scalar.Native[F]](s *QP[F]) (QPResult[F], error) {
	n := s.P.Rows()
	m := s.A.Rows()
	sigma := F(s.Sigma)
	alpha := F(s.Alpha)
	oneMinusAlpha := F(1 - s.Alpha)
	lo, hi, q := s.L, s.U, s.Q
	var f, mem, b, cl uint64

	rhoBuf := make([]F, 2*m)
	rho, rhoInv := rhoBuf[:m], rhoBuf[m:]
	for i := 0; i < m; i++ {
		r := s.Rho
		if float64(absF(lo[i]-hi[i])) < 1e-12 {
			r = s.Rho * 1e3
		}
		rho[i] = F(r)
		rhoInv[i] = F(1 / r)
	}
	f += 2 * uint64(m)

	// KKT matrix: [[P+σI, Aᵀ], [A, −diag(1/ρ)]], assembled as the
	// hooked SetSubmatrix/Transpose/Set sequence would.
	k := n + m
	kd := make([]F, k*k)
	pd, ad := s.P.Raw(), s.A.Raw()
	for i := 0; i < n; i++ {
		copy(kd[i*k:i*k+n], pd[i*n:i*n+n])
		kd[i*k+i] = kd[i*k+i] + sigma
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			kd[j*k+n+i] = ad[i*n+j]
		}
		copy(kd[(n+i)*k:(n+i)*k+n], ad[i*n:i*n+n])
		kd[(n+i)*k+n+i] = -rhoInv[i]
	}
	mem += uint64(2*n*n + 2*n + 6*m*n + m)
	f += uint64(n + m)
	ldlt, err := mat.LDLTDecompose(mat.New(k, k, kd))
	if err != nil {
		profile.AddCounts(profile.Counts{F: f, I: mem, M: mem + cl, B: b})
		return QPResult[F]{}, errKKT
	}

	// Iterates: x and z swap with their next values each step; zPrev is
	// the buffer z leaves behind.
	buf := make([]F, 2*n+4*m+k)
	x, xNew := buf[:n:n], buf[n:2*n:2*n]
	zNew, dzr := buf[2*n:2*n+m:2*n+m], buf[2*n+m:2*n+2*m:2*n+2*m]
	y, zt := buf[2*n+2*m:2*n+3*m:2*n+3*m], buf[2*n+3*m:2*n+4*m:2*n+4*m]
	rhs := buf[2*n+4*m:]
	if s.WarmX != nil && len(s.WarmX) == n {
		copy(x, s.WarmX)
		cl += 2 * uint64(n)
	}
	z := []F(s.A.MulVec(x))
	for i := 0; i < m; i++ {
		var cmp uint64
		z[i], cmp = clampNat(z[i], lo[i], hi[i])
		b += cmp
	}

	res := QPResult[F]{}
	for it := 0; it < s.MaxIter; it++ {
		res.Iterations = it + 1
		for i := 0; i < n; i++ {
			rhs[i] = sigma*x[i] - q[i]
		}
		for i := 0; i < m; i++ {
			rhs[n+i] = z[i] - rhoInv[i]*y[i]
		}
		sol := ldlt.Solve(rhs)
		xt, nu := sol[:n], sol[n:]
		for i := 0; i < m; i++ {
			zt[i] = z[i] + rhoInv[i]*(nu[i]-y[i])
		}
		for i := 0; i < n; i++ {
			xNew[i] = alpha*xt[i] + oneMinusAlpha*x[i]
		}
		for i := 0; i < m; i++ {
			v := alpha*zt[i] + oneMinusAlpha*z[i] + rhoInv[i]*y[i]
			var cmp uint64
			zNew[i], cmp = clampNat(v, lo[i], hi[i])
			b += cmp
			y[i] = y[i] + rho[i]*(alpha*zt[i]+oneMinusAlpha*z[i]-zNew[i])
		}
		x, xNew = xNew, x
		zPrev := z
		z, zNew = zNew, zPrev
		// rhs, zt, xNew, zPrev's Clone and the update loop.
		f += uint64(2*n+2*m) + uint64(3*m) + uint64(3*n) + uint64(11*m)
		cl += 2 * uint64(m)

		ax := s.A.MulVec(x)
		primal := 0.0
		for i := 0; i < m; i++ {
			if d := float64(absF(ax[i] - z[i])); d > primal {
				primal = d
			}
		}
		dual := 0.0
		for i := 0; i < m; i++ {
			dzr[i] = (z[i] - zPrev[i]) * rho[i]
		}
		dz := s.A.TMulVec(dzr)
		for i := 0; i < n; i++ {
			if d := float64(absF(dz[i])); d > dual {
				dual = d
			}
		}
		// primal, z.Sub(zPrev) with its 3m moves, the ρ scaling, dual.
		f += uint64(2*m) + uint64(m) + uint64(m) + uint64(n)
		cl += 3 * uint64(m)
		res.PrimalRes, res.DualRes = primal, dual
		if primal < s.EpsAbs && dual < s.EpsAbs {
			break
		}
	}
	profile.AddCounts(profile.Counts{F: f, I: mem, M: mem + cl, B: b})
	res.Z = mat.Vec[F](x)
	return res, nil
}
