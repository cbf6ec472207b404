package ekf

import (
	"repro/internal/imu"
	"repro/internal/mat"
	"repro/internal/scalar"
)

// BeeCEEKF is the 10-state RoboBee "characterized embedded" EKF of
// Naveen et al. [47], fusing time-of-flight and IMU data for a hovering
// flapping-wing vehicle.
//
// State: x = [p (3, position m), v (3, velocity m/s),
// θ (3, small-angle attitude error rad), b (1, ToF range bias m)].
//
// Unlike FlyEKF, the dynamics Jacobian depends on the current attitude
// (the specific-force term rotates), so it is rebuilt every predict —
// one of the reasons its measured cost dwarfs its FLOP estimate in
// Case Study #3.
type BeeCEEKF[T scalar.Real[T]] struct {
	*Filter[T]
	g T

	tof Measurement[T]
	att Measurement[T]
}

// BeeCEEKFConfig collects the tunable noise parameters.
type BeeCEEKFConfig struct {
	ProcessNoise float64
	TofStd       float64
	AttStd       float64
}

// DefaultBeeCEEKFConfig matches the hardware-in-the-loop study's scale.
func DefaultBeeCEEKFConfig() BeeCEEKFConfig {
	return BeeCEEKFConfig{ProcessNoise: 1e-4, TofStd: 0.005, AttStd: 0.05}
}

// NewBeeCEEKF builds the 10-state filter in like's scalar format.
func NewBeeCEEKF[T scalar.Real[T]](like T, strategy Strategy, cfg BeeCEEKFConfig) *BeeCEEKF[T] {
	g := like.FromFloat(imu.Gravity)
	x0 := mat.ZeroVec[T](10)
	for i := range x0 {
		x0[i] = like.FromFloat(0)
	}
	p0 := mat.Identity(10, like).Scale(like.FromFloat(0.1))
	q := mat.Identity(10, like).Scale(like.FromFloat(cfg.ProcessNoise))

	dyn := func(x mat.Vec[T], u mat.Vec[T], dt T) (mat.Vec[T], mat.Mat[T]) {
		one := scalar.One(dt)
		// u = [ax, ay, az, wx, wy, wz] body-frame IMU readings.
		// Small-angle rotation of specific force into the world frame:
		// aW ≈ (I + [θ]×)·aB − g·ẑ.
		theta := mat.Vec[T]{x[6], x[7], x[8]}
		aB := mat.Vec[T]{u[0], u[1], u[2]}
		aW := aB.Add(theta.Cross(aB))
		aW[2] = aW[2].Sub(g)

		next := x.Clone()
		for i := 0; i < 3; i++ {
			next[i] = x[i].Add(x[3+i].Mul(dt))     // p += v·dt
			next[3+i] = x[3+i].Add(aW[i].Mul(dt))  // v += a·dt
			next[6+i] = x[6+i].Add(u[3+i].Mul(dt)) // θ += ω·dt
		}
		// next[9]: ToF bias is a random walk (unchanged in mean).

		jac := mat.Identity(10, one)
		for i := 0; i < 3; i++ {
			jac.Set(i, 3+i, dt) // ∂p/∂v
		}
		// ∂v/∂θ = -[aB]× · dt (attitude-dependent — rebuilt each step).
		ha := mat.Vec[T]{aB[0], aB[1], aB[2]}
		jac.Set(3, 7, ha[2].Mul(dt))
		jac.Set(3, 8, ha[1].Neg().Mul(dt))
		jac.Set(4, 6, ha[2].Neg().Mul(dt))
		jac.Set(4, 8, ha[0].Mul(dt))
		jac.Set(5, 6, ha[1].Mul(dt))
		jac.Set(5, 7, ha[0].Neg().Mul(dt))
		return next, jac
	}

	f := &BeeCEEKF[T]{g: g}
	f.Filter = New(x0, p0, q, dyn, strategy)

	// ToF: slant range ≈ pz·(1 + |θxy|²/2) + bias; linearized H touches
	// pz, θx, θy, and the bias state.
	rTof := mat.Zeros[T](1, 1)
	rTof.Set(0, 0, like.FromFloat(cfg.TofStd*cfg.TofStd))
	f.tof = Measurement[T]{
		Name: "tof",
		R:    rTof,
		Predict: func(x mat.Vec[T]) (mat.Vec[T], mat.Mat[T]) {
			half := like.FromFloat(0.5)
			tx, ty := x[6], x[7]
			tilt := tx.Mul(tx).Add(ty.Mul(ty))
			pred := x[2].Mul(scalar.One(half).Add(half.Mul(tilt))).Add(x[9])
			h := mat.Zeros[T](1, 10)
			h.Set(0, 2, scalar.One(half).Add(half.Mul(tilt)))
			h.Set(0, 6, x[2].Mul(tx))
			h.Set(0, 7, x[2].Mul(ty))
			h.Set(0, 9, scalar.One(half))
			return mat.Vec[T]{pred}, h
		},
	}

	// Accelerometer attitude reference: gravity leakage into body x/y
	// gives θx, θy observations (2 rows).
	rAtt := mat.Identity(2, like).Scale(like.FromFloat(cfg.AttStd * cfg.AttStd))
	f.att = Measurement[T]{
		Name: "att",
		R:    rAtt,
		Predict: func(x mat.Vec[T]) (mat.Vec[T], mat.Mat[T]) {
			h := mat.Zeros[T](2, 10)
			h.Set(0, 6, scalar.One(like.FromFloat(1)))
			h.Set(1, 7, scalar.One(like.FromFloat(1)))
			return mat.Vec[T]{x[6], x[7]}, h
		},
	}
	return f
}

// Step runs one predict with body IMU readings plus optional ToF and
// accelerometer-attitude fusions.
func (f *BeeCEEKF[T]) Step(accel, gyro mat.Vec[T], dt T, tofRange *T, attRef mat.Vec[T]) error {
	u := mat.Vec[T]{accel[0], accel[1], accel[2], gyro[0], gyro[1], gyro[2]}
	f.Predict(u, dt)
	var ms []Measurement[T]
	var zs []mat.Vec[T]
	if tofRange != nil {
		ms = append(ms, f.tof)
		zs = append(zs, mat.Vec[T]{*tofRange})
	}
	if attRef != nil {
		ms = append(ms, f.att)
		zs = append(zs, attRef)
	}
	if len(ms) == 0 {
		return nil
	}
	return f.UpdateAll(ms, zs)
}

// Position returns the position estimate as float64.
func (f *BeeCEEKF[T]) Position() [3]float64 {
	return [3]float64{f.X[0].Float(), f.X[1].Float(), f.X[2].Float()}
}

// BeeCEEKFFLOPs is the sparse-aware static FLOP estimate from the source
// literature (Table VIII) — the figure whose optimism the case study
// demonstrates.
const BeeCEEKFFLOPs = 1063
