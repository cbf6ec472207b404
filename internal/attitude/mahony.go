package attitude

import (
	"repro/internal/geom"
	"repro/internal/imu"
	"repro/internal/mat"
	"repro/internal/scalar"
)

// Mahony is the explicit complementary filter of Mahony et al.: a
// proportional-integral correction of the gyro by the cross-product error
// between measured and estimated reference directions.
type Mahony[T scalar.Real[T]] struct {
	q        geom.Quat[T]
	kp, ki   T
	integral mat.Vec[T]
	mode     Mode
	diag     Diag
}

// NewMahony builds a Mahony filter with the given gains (typical values
// kp=0.5-5, ki=0-0.1) in like's scalar format.
func NewMahony[T scalar.Real[T]](like T, mode Mode, kp, ki float64) *Mahony[T] {
	z := scalar.Zero(like)
	return &Mahony[T]{
		q:        geom.IdentityQuat(like),
		kp:       like.FromFloat(kp),
		ki:       like.FromFloat(ki),
		integral: mat.Vec[T]{z, z, z},
		mode:     mode,
	}
}

// Name returns the suite kernel name.
func (f *Mahony[T]) Name() string { return "mahony" }

// Quat returns the current attitude estimate.
func (f *Mahony[T]) Quat() geom.Quat[T] { return f.q }

// Diagnostics returns the accumulated failure counters.
func (f *Mahony[T]) Diagnostics() Diag { return f.diag }

// Update advances the filter by one epoch.
func (f *Mahony[T]) Update(s imu.Sample[T]) {
	a, ok := safeNormalize(s.Accel, &f.diag)
	if !ok {
		// Gyro-only propagation.
		f.q = checkNorm(f.q.Integrate(s.Gyro, s.Dt), &f.diag)
		return
	}
	v := estGravity(f.q)
	e := a.Cross(v)

	if f.mode == MARG {
		m, mok := safeNormalize(s.Mag, &f.diag)
		if mok {
			w := estMag(f.q, m)
			e = e.Add(m.Cross(w))
		}
	}

	// PI correction of the gyro.
	if !f.ki.IsZero() {
		f.integral = f.integral.Add(e.Scale(f.ki.Mul(s.Dt)))
	}
	corr := s.Gyro.Add(e.Scale(f.kp)).Add(f.integral)

	// First-order quaternion integration with the corrected rate.
	half := s.Dt.Mul(s.Dt.FromFloat(0.5))
	omega := geom.Quat[T]{W: scalar.Zero(s.Dt), X: corr[0], Y: corr[1], Z: corr[2]}
	f.q = checkNorm(f.q.Add(f.q.Mul(omega).Scale(half)), &f.diag)
}
