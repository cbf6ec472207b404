package control

import (
	"repro/internal/mat"
	"repro/internal/scalar"
)

// BeeMPC is the bee-mpc kernel: a linear MPC solved as one general
// sparse QP per step with the OSQP-style ADMM solver [17]. The decision
// vector stacks states and inputs over the horizon; dynamics enter as
// equality constraints, inputs as box constraints. The KKT system this
// produces (≈(n+m)·N + n rows) is why bee-mpc dominates the control
// kernels' latency column in Table IV.
type BeeMPC[T scalar.Real[T]] struct {
	N    int
	n, m int

	a, b    mat.Mat[T]
	like    T
	umin    []float64
	umax    []float64
	qC      [][]float64
	rC      [][]float64
	pT      [][]float64 // terminal cost P∞ from the DARE
	kinf    [][]float64 // LQR gain for the warm start
	maxIter int
}

// BeeMPCConfig parameterizes the controller.
type BeeMPCConfig struct {
	Horizon int
	UMin    []float64
	UMax    []float64
	MaxIter int
}

// DefaultBeeMPCConfig mirrors the flapping-flight controller scale.
func DefaultBeeMPCConfig() BeeMPCConfig {
	return BeeMPCConfig{Horizon: 10, UMin: []float64{-2, -2}, UMax: []float64{2, 2}, MaxIter: 100}
}

// NewBeeMPC builds the controller for the given discrete model. A
// terminal cost P∞ (the DARE solution) closes the short horizon, as any
// practical MPC must.
func NewBeeMPC[T scalar.Real[T]](like T, a, b, q, r [][]float64, cfg BeeMPCConfig) *BeeMPC[T] {
	out := &BeeMPC[T]{
		N: cfg.Horizon,
		n: len(a), m: len(b[0]),
		a:    mat.FromFloats(like, a),
		b:    mat.FromFloats(like, b),
		like: like,
		umin: cfg.UMin, umax: cfg.UMax,
		qC: q, rC: r,
		maxIter: cfg.MaxIter,
	}
	if k, p, err := solveDARE(a, b, q, r); err == nil {
		out.pT = p
		out.kinf = k
	} else {
		out.pT = q
	}
	return out
}

// lqrRollout seeds the ADMM with the clamped infinite-horizon LQR
// trajectory — the standard MPC warm start, without which the
// operator-splitting iteration needs thousands of steps on this poorly
// scaled problem.
func (c *BeeMPC[T]) lqrRollout(x0 mat.Vec[T]) mat.Vec[T] {
	n, m, N := c.n, c.m, c.N
	like := c.like
	warm := mat.ZeroVec[T](n*N + m*N)
	if c.kinf == nil {
		return warm
	}
	kmat := mat.FromFloats(like, c.kinf)
	x := x0.Clone()
	for k := 0; k < N; k++ {
		u := kmat.MulVec(x).Neg()
		for j := 0; j < m; j++ {
			u[j] = scalar.Clamp(u[j], like.FromFloat(c.umin[j]), like.FromFloat(c.umax[j]))
		}
		x = c.a.MulVec(x).Add(c.b.MulVec(u))
		for i := 0; i < n; i++ {
			warm[k*n+i] = x[i]
		}
		for j := 0; j < m; j++ {
			warm[n*N+k*m+j] = u[j]
		}
	}
	return warm
}

// Solve builds and solves the stacked QP from state x0 toward xref,
// returning the first input and the ADMM iteration count.
func (c *BeeMPC[T]) Solve(x0, xref mat.Vec[T]) (mat.Vec[T], int, error) {
	n, m, N := c.n, c.m, c.N
	like := c.like
	// Decision z = [x1..xN, u0..u(N-1)]; dim:
	nx := n * N
	nu := m * N
	dim := nx + nu

	// Cost: block-diagonal Q per state, R per input; linear term tracks
	// the reference.
	p := mat.Zeros[T](dim, dim)
	qv := mat.ZeroVec[T](dim)
	for k := 0; k < N; k++ {
		// Terminal state block carries P∞ instead of Q.
		cost := c.qC
		if k == N-1 {
			cost = c.pT
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.Set(k*n+i, k*n+j, like.FromFloat(cost[i][j]))
			}
		}
		for i := 0; i < n; i++ {
			var acc T
			for j := 0; j < n; j++ {
				acc = acc.Add(like.FromFloat(cost[i][j]).Mul(xref[j]))
			}
			qv[k*n+i] = acc.Neg()
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				p.Set(nx+k*m+i, nx+k*m+j, like.FromFloat(c.rC[i][j]))
			}
		}
	}

	// Constraints: dynamics equalities x_{k+1} = A·x_k + B·u_k (with
	// x_0 fixed), then input boxes.
	rows := n*N + m*N
	amat := mat.Zeros[T](rows, dim)
	l := mat.ZeroVec[T](rows)
	u := mat.ZeroVec[T](rows)
	one := scalar.One(like.FromFloat(1))
	for k := 0; k < N; k++ {
		// Row block for x_{k+1} − A·x_k − B·u_k = 0 (k=0 uses x0).
		for i := 0; i < n; i++ {
			row := k*n + i
			amat.Set(row, k*n+i, one)
			if k > 0 {
				for j := 0; j < n; j++ {
					amat.Set(row, (k-1)*n+j, c.a.At(i, j).Neg())
				}
			}
			for j := 0; j < m; j++ {
				amat.Set(row, nx+k*m+j, c.b.At(i, j).Neg())
			}
			var rhs T
			if k == 0 {
				for j := 0; j < n; j++ {
					rhs = rhs.Add(c.a.At(i, j).Mul(x0[j]))
				}
			}
			l[row] = rhs
			u[row] = rhs
		}
	}
	for k := 0; k < N; k++ {
		for j := 0; j < m; j++ {
			row := n*N + k*m + j
			amat.Set(row, nx+k*m+j, one)
			l[row] = like.FromFloat(c.umin[j])
			u[row] = like.FromFloat(c.umax[j])
		}
	}

	// Objective normalization (a one-step Ruiz-style equilibration): the
	// terminal P∞ dwarfs R, which stalls ADMM; scaling (P, q) by the
	// inverse of the largest diagonal leaves the argmin unchanged and
	// restores the step-size balance.
	maxDiag := 1.0
	for i := 0; i < dim; i++ {
		if d := p.At(i, i).Abs().Float(); d > maxDiag {
			maxDiag = d
		}
	}
	scale := like.FromFloat(1 / maxDiag)
	p = p.Scale(scale)
	qv = qv.Scale(scale)

	solver := NewQP(p, qv, amat, l, u)
	solver.MaxIter = c.maxIter
	solver.WarmX = c.lqrRollout(x0)
	res, err := solver.Solve()
	if err != nil {
		return nil, 0, err
	}
	out := make(mat.Vec[T], m)
	copy(out, res.Z[nx:nx+m])
	return out, res.Iterations, nil
}
