// Package control implements the control kernels of the suite: the
// sparse 4×4 fly-lqr regulator, its TinyMPC successor fly-tiny-mpc, the
// OSQP-style ADMM MPC bee-mpc, the SE(3) geometric tracking controller
// bee-geom, and the sliding-mode adaptive controller bee-smac.
// Benchmarks cover high-level reference computation only; actuator
// mapping (piezo drive waveforms) is out of scope, as in the paper.
package control

import (
	"errors"

	"repro/internal/mat"
	"repro/internal/scalar"
)

// LQR is an infinite-horizon discrete-time linear quadratic regulator:
// the online kernel is just u = -K·(x - xref), with K solved offline
// from the DARE at construction. The paper's fly-lqr observation — that
// the sparsity of the 4×4 gain cannot be exploited by a generic dense
// implementation — holds here by construction: Update performs the full
// dense m×n multiply.
type LQR[T scalar.Real[T]] struct {
	K mat.Mat[T] // m×n feedback gain
	A mat.Mat[T] // n×n dynamics (kept for simulation/benchmarks)
	B mat.Mat[T] // n×m input map
}

// solveDARE iterates the discrete algebraic Riccati equation to a fixed
// point in float64 (at most 2000 steps) and returns the gain K and
// cost-to-go P∞.
func solveDARE(a, b, q, r [][]float64) (k, p [][]float64, err error) {
	k, p, err = riccati(a, b, q, r, 2000)
	if err != nil {
		return nil, nil, errors.New("control: DARE iteration hit singular R + BᵀPB")
	}
	return k, p, nil
}

// NewLQR solves the discrete algebraic Riccati equation by fixed-point
// iteration (offline, float64) and returns the regulator with gains in
// like's scalar format.
func NewLQR[T scalar.Real[T]](like T, a, b, q, r [][]float64) (*LQR[T], error) {
	k, _, err := solveDARE(a, b, q, r)
	if err != nil {
		return nil, err
	}
	out := &LQR[T]{
		K: mat.FromFloats(like, k),
		A: mat.FromFloats(like, a),
		B: mat.FromFloats(like, b),
	}
	return out, nil
}

// Update computes the control u = -K·(x - xref) — the measured kernel.
func (l *LQR[T]) Update(x, xref mat.Vec[T]) mat.Vec[T] {
	return l.K.MulVec(x.Sub(xref)).Neg()
}

// FlyLQRFLOPs is the static FLOP count claimed for the fly-lqr update in
// the supplemental material the paper re-examines (Table VIII).
const FlyLQRFLOPs = 30

// TinyMPCFLOPs is the per-solve FLOP estimate for the 10-step-horizon
// TinyMPC configuration in the same comparison.
const TinyMPCFLOPs = 1000

// FlyModel returns the linearized planar flapping-wing model of Dhingra
// et al. [19]: state x = [θ (pitch), θ̇, v (lateral velocity), p
// (lateral position)], inputs u = [pitch moment, thrust tilt],
// discretized at dt.
func FlyModel(dt float64) (a, b, q, r [][]float64) {
	g := 9.80665
	// Continuous dynamics: θ̇ = ω; ω̇ = u1 (moment); v̇ = g·θ - c·v + u2;
	// ṗ = v, with lateral drag c.
	c := 1.5
	a = [][]float64{
		{1, dt, 0, 0},
		{0, 1, 0, 0},
		{g * dt, 0, 1 - c*dt, 0},
		{0, 0, dt, 1},
	}
	b = [][]float64{
		{0, 0},
		{dt, 0},
		{0, dt},
		{0, 0},
	}
	q = [][]float64{
		{10, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 2, 0},
		{0, 0, 0, 5},
	}
	r = [][]float64{
		{1, 0},
		{0, 1},
	}
	return a, b, q, r
}
