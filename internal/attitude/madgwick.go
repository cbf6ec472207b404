package attitude

import (
	"repro/internal/geom"
	"repro/internal/imu"
	"repro/internal/scalar"
)

// Madgwick is the gradient-descent orientation filter: one normalized
// step down the gradient of the measurement objective per epoch, fused
// with the gyro quaternion derivative through the beta gain.
type Madgwick[T scalar.Real[T]] struct {
	q    geom.Quat[T]
	beta T
	mode Mode
	diag Diag
}

// NewMadgwick builds a Madgwick filter with gain beta (typical 0.03-0.3)
// in like's scalar format.
func NewMadgwick[T scalar.Real[T]](like T, mode Mode, beta float64) *Madgwick[T] {
	return &Madgwick[T]{q: geom.IdentityQuat(like), beta: like.FromFloat(beta), mode: mode}
}

// Name returns the suite kernel name.
func (f *Madgwick[T]) Name() string { return "madgwick" }

// Quat returns the current attitude estimate.
func (f *Madgwick[T]) Quat() geom.Quat[T] { return f.q }

// Diagnostics returns the accumulated failure counters.
func (f *Madgwick[T]) Diagnostics() Diag { return f.diag }

// Update advances the filter by one epoch.
func (f *Madgwick[T]) Update(s imu.Sample[T]) {
	a, ok := safeNormalize(s.Accel, &f.diag)
	if !ok {
		f.q = checkNorm(f.q.Integrate(s.Gyro, s.Dt), &f.diag)
		return
	}
	zero := scalar.Zero(s.Dt)
	two := s.Dt.FromFloat(2)
	four := s.Dt.FromFloat(4)
	q0, q1, q2, q3 := f.q.W, f.q.X, f.q.Y, f.q.Z

	// Gravity objective F_g = R(q)ᵀ ẑ - â and its Jacobian transpose
	// applied to F (expanded, as in Madgwick's report).
	f1 := two.Mul(q1.Mul(q3).Sub(q0.Mul(q2))).Sub(a[0])
	f2 := two.Mul(q0.Mul(q1).Add(q2.Mul(q3))).Sub(a[1])
	f3 := scalar.One(q0).Sub(two.Mul(q1.Mul(q1))).Sub(two.Mul(q2.Mul(q2))).Sub(a[2])

	g0 := two.Mul(q2).Neg().Mul(f1).Add(two.Mul(q1).Mul(f2))
	g1 := two.Mul(q3).Mul(f1).Add(two.Mul(q0).Mul(f2)).Sub(four.Mul(q1).Mul(f3))
	g2 := two.Mul(q0).Neg().Mul(f1).Add(two.Mul(q3).Mul(f2)).Sub(four.Mul(q2).Mul(f3))
	g3 := two.Mul(q1).Mul(f1).Add(two.Mul(q2).Mul(f2))

	if f.mode == MARG {
		m, mok := safeNormalize(s.Mag, &f.diag)
		if mok {
			// Reference field from the current estimate: rotate the
			// measurement to the world frame and flatten to (bx, 0, bz).
			r := f.q.RotationMatrix()
			h := r.MulVec(m)
			bx2 := two.Mul(scalar.Hypot(h[0], h[1])) // 2·bx
			bz2 := two.Mul(h[2])                     // 2·bz
			bx4 := two.Mul(bx2)
			bz4 := two.Mul(bz2)
			half := s.Dt.FromFloat(0.5)

			// Magnetometer objective F_m (Madgwick report, eq. 29).
			fm1 := bx2.Mul(half.FromFloat(0.5).Sub(q2.Mul(q2)).Sub(q3.Mul(q3))).
				Add(bz2.Mul(q1.Mul(q3).Sub(q0.Mul(q2)))).Sub(m[0])
			fm2 := bx2.Mul(q1.Mul(q2).Sub(q0.Mul(q3))).
				Add(bz2.Mul(q0.Mul(q1).Add(q2.Mul(q3)))).Sub(m[1])
			fm3 := bx2.Mul(q0.Mul(q2).Add(q1.Mul(q3))).
				Add(bz2.Mul(half.FromFloat(0.5).Sub(q1.Mul(q1)).Sub(q2.Mul(q2)))).Sub(m[2])

			// Jᵀ·F_m contributions (eq. 34's expanded Jacobian).
			g0 = g0.Add(bz2.Neg().Mul(q2).Mul(fm1)).
				Add(bx2.Neg().Mul(q3).Add(bz2.Mul(q1)).Mul(fm2)).
				Add(bx2.Mul(q2).Mul(fm3))
			g1 = g1.Add(bz2.Mul(q3).Mul(fm1)).
				Add(bx2.Mul(q2).Add(bz2.Mul(q0)).Mul(fm2)).
				Add(bx2.Mul(q3).Sub(bz4.Mul(q1)).Mul(fm3))
			g2 = g2.Add(bx4.Neg().Mul(q2).Sub(bz2.Mul(q0)).Mul(fm1)).
				Add(bx2.Mul(q1).Add(bz2.Mul(q3)).Mul(fm2)).
				Add(bx2.Mul(q0).Sub(bz4.Mul(q2)).Mul(fm3))
			g3 = g3.Add(bx4.Neg().Mul(q3).Add(bz2.Mul(q1)).Mul(fm1)).
				Add(bx2.Neg().Mul(q0).Add(bz2.Mul(q2)).Mul(fm2)).
				Add(bx2.Mul(q1).Mul(fm3))
		}
	}

	grad := geom.Quat[T]{W: g0, X: g1, Y: g2, Z: g3}
	gn := grad.Norm()
	if !gn.IsZero() {
		// Normalize by component-wise division rather than multiplying
		// by 1/‖∇F‖: the reciprocal of a small gradient overflows
		// narrow fixed-point formats even though each quotient is ≤ 1.
		grad = geom.Quat[T]{W: grad.W.Div(gn), X: grad.X.Div(gn), Y: grad.Y.Div(gn), Z: grad.Z.Div(gn)}
	}

	// q̇ = ½ q ⊗ (0, ω) - β ∇F.
	omega := geom.Quat[T]{W: zero, X: s.Gyro[0], Y: s.Gyro[1], Z: s.Gyro[2]}
	half := s.Dt.FromFloat(0.5)
	qdot := f.q.Mul(omega).Scale(half).Add(grad.Scale(f.beta.Neg()))
	f.q = checkNorm(f.q.Add(qdot.Scale(s.Dt)), &f.diag)
}
