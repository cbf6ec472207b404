package attitude

import (
	"repro/internal/geom"
	"repro/internal/imu"
	"repro/internal/mat"
	"repro/internal/scalar"
)

// Fourati is the nonlinear MARG filter of Fourati et al.: a
// Levenberg-Marquardt correction step on the combined accelerometer +
// magnetometer measurement error, fused with the gyro propagation. The
// 3×3 normal-equation solve per update is what makes it the most
// float-hungry of the three attitude kernels (Table III shows roughly
// 3× Mahony's float count).
type Fourati[T scalar.Real[T]] struct {
	q      geom.Quat[T]
	k      T // correction gain
	lambda T // LM damping
	diag   Diag
}

// NewFourati builds the filter in like's scalar format. Typical gains:
// k around 0.3-1, lambda small (1e-3).
func NewFourati[T scalar.Real[T]](like T, k, lambda float64) *Fourati[T] {
	return &Fourati[T]{
		q:      geom.IdentityQuat(like),
		k:      like.FromFloat(k),
		lambda: like.FromFloat(lambda),
	}
}

// Name returns the suite kernel name.
func (f *Fourati[T]) Name() string { return "fourati" }

// Quat returns the current attitude estimate.
func (f *Fourati[T]) Quat() geom.Quat[T] { return f.q }

// Diagnostics returns the accumulated failure counters.
func (f *Fourati[T]) Diagnostics() Diag { return f.diag }

// Update advances the filter by one epoch. Fourati requires MARG data.
func (f *Fourati[T]) Update(s imu.Sample[T]) {
	a, aok := safeNormalize(s.Accel, &f.diag)
	m, mok := safeNormalize(s.Mag, &f.diag)
	if !aok || !mok {
		f.q = checkNorm(f.q.Integrate(s.Gyro, s.Dt), &f.diag)
		return
	}
	// Predicted reference directions in the body frame.
	v := estGravity(f.q)
	w := estMag(f.q, m)

	// Stacked measurement error and its Jacobian model: for small
	// rotation δ, the predicted directions move by v×δ and w×δ, so the
	// Gauss-Newton normal matrix is K = [v]ₓᵀ[v]ₓ + [w]ₓᵀ[w]ₓ.
	ea := a.Cross(v)
	em := m.Cross(w)
	e := ea.Add(em)

	hv := geom.Hat(v)
	hw := geom.Hat(w)
	normal := hv.Transpose().Mul(hv).Add(hw.Transpose().Mul(hw))
	// LM damping keeps the solve well-posed near alignment.
	one := scalar.One(f.k)
	for i := 0; i < 3; i++ {
		normal.Set(i, i, normal.At(i, i).Add(f.lambda.Add(one.FromFloat(1e-2))))
	}
	delta, err := mat.Solve(normal, e)
	if err != nil {
		f.diag.EarlyExits++
		f.q = checkNorm(f.q.Integrate(s.Gyro, s.Dt), &f.diag)
		return
	}

	corr := s.Gyro.Add(delta.Scale(f.k))
	half := s.Dt.Mul(s.Dt.FromFloat(0.5))
	omega := geom.Quat[T]{W: scalar.Zero(s.Dt), X: corr[0], Y: corr[1], Z: corr[2]}
	f.q = checkNorm(f.q.Add(f.q.Mul(omega).Scale(half)), &f.diag)
}
