// Package ekf implements the sensor-fusion kernels of the suite: a
// generic Extended Kalman Filter framework with the three asynchronous
// update strategies studied in the paper — synchronous (stacked), the
// sequential scalar update, and the truncated update of Talwekar et al.
// — plus the two concrete filters: the 4-state RoboFly fly-ekf and the
// 10-state RoboBee bee-ceekf.
//
// The framework is intentionally generic: the paper observes that a
// generic EKF cannot exploit constant Jacobians or sparse system
// matrices, and that Eigen's sparse types make things worse on MCUs.
// This package reproduces that trade-off; a hand-specialized fly-ekf
// fast path lives alongside for the ablation benchmark.
package ekf

import (
	"errors"

	"repro/internal/mat"
	"repro/internal/scalar"
)

// Strategy selects how measurement updates are applied.
type Strategy int

// Update strategies (Section IV-C and Case Study #3 of the paper).
const (
	// Sync stacks all pending measurements into one vector update with
	// a full innovation-covariance inversion.
	Sync Strategy = iota
	// Sequential applies each scalar measurement independently; each
	// update divides by a scalar innovation variance — no matrix
	// inversion at all.
	Sequential
	// Truncated is Sequential restricted to the state entries directly
	// observed by each measurement row: covariance cross terms outside
	// the row's support are skipped, trading optimality for cycles.
	Truncated
)

// String names the strategy as the paper abbreviates it.
func (s Strategy) String() string {
	switch s {
	case Sync:
		return "sync"
	case Sequential:
		return "seq"
	default:
		return "trunc"
	}
}

// Dynamics advances the state by dt under control u and returns the new
// state with the Jacobian F = ∂f/∂x.
type Dynamics[T scalar.Real[T]] func(x mat.Vec[T], u mat.Vec[T], dt T) (next mat.Vec[T], jac mat.Mat[T])

// Measurement is one (possibly multi-row) sensor model.
type Measurement[T scalar.Real[T]] struct {
	Name string
	// Predict returns the expected measurement and H = ∂h/∂x at x.
	Predict func(x mat.Vec[T]) (z mat.Vec[T], jac mat.Mat[T])
	// R is the (diagonal) measurement noise covariance.
	R mat.Mat[T]
}

// Filter is a generic EKF.
type Filter[T scalar.Real[T]] struct {
	X mat.Vec[T] // state estimate
	P mat.Mat[T] // state covariance
	Q mat.Mat[T] // process noise (added per predict)

	dyn      Dynamics[T]
	strategy Strategy
}

// New builds a filter with initial state x0, covariance p0, process
// noise q, dynamics dyn, and update strategy.
func New[T scalar.Real[T]](x0 mat.Vec[T], p0, q mat.Mat[T], dyn Dynamics[T], strategy Strategy) *Filter[T] {
	return &Filter[T]{X: x0.Clone(), P: p0.Clone(), Q: q, dyn: dyn, strategy: strategy}
}

// Predict propagates state and covariance: P ← F·P·Fᵀ + Q.
func (f *Filter[T]) Predict(u mat.Vec[T], dt T) {
	var jac mat.Mat[T]
	f.X, jac = f.dyn(f.X, u, dt)
	f.P = jac.Mul(f.P).Mul(jac.Transpose()).Add(f.Q)
}

// ErrInnovationSingular reports a non-invertible innovation covariance.
var ErrInnovationSingular = errors.New("ekf: innovation covariance singular")

// Update applies a measurement with the configured strategy.
func (f *Filter[T]) Update(m Measurement[T], z mat.Vec[T]) error {
	switch f.strategy {
	case Sync:
		return f.updateSync(m, z)
	case Sequential:
		return f.updateSequential(m, z, false)
	default:
		return f.updateSequential(m, z, true)
	}
}

// UpdateAll applies several measurements. Sync stacks them into one
// joint update (the "synchronous" path of the paper); the other
// strategies process them in order.
func (f *Filter[T]) UpdateAll(ms []Measurement[T], zs []mat.Vec[T]) error {
	if len(ms) != len(zs) {
		return errors.New("ekf: measurement/observation count mismatch")
	}
	if f.strategy == Sync {
		return f.updateStacked(ms, zs)
	}
	for i := range ms {
		if err := f.Update(ms[i], zs[i]); err != nil {
			return err
		}
	}
	return nil
}

// updateSync is the textbook vector update for one measurement block.
func (f *Filter[T]) updateSync(m Measurement[T], z mat.Vec[T]) error {
	zPred, h := m.Predict(f.X)
	y := z.Sub(zPred)
	s := h.Mul(f.P).Mul(h.Transpose()).Add(m.R)
	sInv, err := mat.Inverse(s)
	if err != nil {
		return ErrInnovationSingular
	}
	k := f.P.Mul(h.Transpose()).Mul(sInv)
	f.X = f.X.Add(k.MulVec(y))
	n := len(f.X)
	ikh := mat.Identity(n, f.X[0].FromFloat(1)).Sub(k.Mul(h))
	f.P = ikh.Mul(f.P)
	return nil
}

// updateStacked fuses several measurement blocks in one joint update.
func (f *Filter[T]) updateStacked(ms []Measurement[T], zs []mat.Vec[T]) error {
	rows := 0
	for i := range ms {
		rows += len(zs[i])
	}
	n := len(f.X)
	like := f.X[0].FromFloat(1)
	h := mat.Zeros[T](rows, n)
	r := mat.Zeros[T](rows, rows)
	y := make(mat.Vec[T], 0, rows)
	at := 0
	for i := range ms {
		zPred, hi := ms[i].Predict(f.X)
		for j := 0; j < len(zs[i]); j++ {
			y = append(y, zs[i][j].Sub(zPred[j]))
			for c := 0; c < n; c++ {
				h.Set(at, c, hi.At(j, c))
			}
			r.Set(at, at, ms[i].R.At(j, j))
			at++
		}
	}
	s := h.Mul(f.P).Mul(h.Transpose()).Add(r)
	sInv, err := mat.Inverse(s)
	if err != nil {
		return ErrInnovationSingular
	}
	k := f.P.Mul(h.Transpose()).Mul(sInv)
	f.X = f.X.Add(k.MulVec(y))
	ikh := mat.Identity(n, like).Sub(k.Mul(h))
	f.P = ikh.Mul(f.P)
	return nil
}

// updateSequential processes each row of the measurement as a scalar
// update. With truncate set, gain and covariance updates are restricted
// to the states in the row's support (the truncated update of [65]).
func (f *Filter[T]) updateSequential(m Measurement[T], z mat.Vec[T], truncate bool) error {
	n := len(f.X)
	for row := 0; row < len(z); row++ {
		zPred, h := m.Predict(f.X)
		// The generic sequential update runs dense over the full state:
		// a generic framework cannot assume anything about H's sparsity
		// (the paper's central EKF observation). Only the truncated
		// variant restricts itself to the row's support.
		support := make([]int, 0, n)
		if truncate {
			for c := 0; c < n; c++ {
				if !h.At(row, c).IsZero() {
					support = append(support, c)
				}
			}
		} else {
			for c := 0; c < n; c++ {
				support = append(support, c)
			}
		}
		if len(support) == 0 {
			continue
		}
		// Innovation variance s = h·P·hᵀ + r (scalar).
		s := m.R.At(row, row)
		for _, a := range support {
			for _, b := range support {
				s = s.Add(h.At(row, a).Mul(f.P.At(a, b)).Mul(h.At(row, b)))
			}
		}
		if s.IsZero() {
			return ErrInnovationSingular
		}
		sInv := scalar.One(s).Div(s)
		// Gain k = P·hᵀ/s; truncated keeps only the supported entries.
		k := make(mat.Vec[T], n)
		for i := 0; i < n; i++ {
			if truncate && !contains(support, i) {
				k[i] = scalar.Zero(s)
				continue
			}
			var acc T
			for _, c := range support {
				acc = acc.Add(f.P.At(i, c).Mul(h.At(row, c)))
			}
			k[i] = acc.Mul(sInv)
		}
		y := z[row].Sub(zPred[row])
		f.X = f.X.Add(k.Scale(y))
		// P ← (I - k·h)·P, restricted to touched rows when truncating.
		hp := make(mat.Vec[T], n) // h·P row vector
		for j := 0; j < n; j++ {
			var acc T
			for _, c := range support {
				acc = acc.Add(h.At(row, c).Mul(f.P.At(c, j)))
			}
			hp[j] = acc
		}
		for i := 0; i < n; i++ {
			if k[i].IsZero() {
				continue
			}
			for j := 0; j < n; j++ {
				if truncate && !contains(support, j) && !contains(support, i) {
					continue
				}
				f.P.Set(i, j, f.P.At(i, j).Sub(k[i].Mul(hp[j])))
			}
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
