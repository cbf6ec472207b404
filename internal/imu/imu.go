// Package imu defines inertial sensor sample types and a trajectory-driven
// sensor simulator. The paper's attitude-estimation case study runs on
// datasets derived from RoboBee motion capture and GammaBot water-strider
// runs; with no access to those logs, this package synthesizes equivalent
// IMU/MARG streams from parameterized analytic trajectories that preserve
// what matters for the precision study — the dynamic range and spectral
// content of gyroscope, accelerometer, and magnetometer readings.
//
// Simulate returns a whole record stream; Stream generates the same
// records one at a time, for consumers that read only a prefix (the
// attitude kernels' benchmark problem extends its records as its
// updates reach them).
package imu

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/scalar"
)

// Gravity is the magnitude of gravitational acceleration (m/s²).
const Gravity = 9.80665

// Record is one simulated sensor epoch, in SI units, with ground truth.
type Record struct {
	T     float64    // seconds since start
	Dt    float64    // seconds since previous sample
	Gyro  [3]float64 // body angular rate, rad/s
	Accel [3]float64 // body specific force, m/s²
	Mag   [3]float64 // body magnetic field, unit-normalized
	Truth geom.Quat[scalar.F64]
}

// Sample is a Record converted into the scalar format a filter runs in.
type Sample[T scalar.Real[T]] struct {
	Gyro  mat.Vec[T]
	Accel mat.Vec[T]
	Mag   mat.Vec[T]
	Dt    T
}

// SampleAs converts r into like's scalar format.
func SampleAs[T scalar.Real[T]](like T, r Record) Sample[T] {
	return Sample[T]{
		Gyro:  mat.VecFromFloats(like, r.Gyro[:]),
		Accel: mat.VecFromFloats(like, r.Accel[:]),
		Mag:   mat.VecFromFloats(like, r.Mag[:]),
		Dt:    like.FromFloat(r.Dt),
	}
}

// Trajectory gives the ground-truth attitude and body angular rate at
// time t.
type Trajectory func(t float64) (q geom.Quat[scalar.F64], omega [3]float64)

// Noise describes the sensor error model.
type Noise struct {
	GyroStd  float64    // rad/s
	AccelStd float64    // m/s²
	MagStd   float64    // fraction of field
	GyroBias [3]float64 // constant rad/s bias
}

// DefaultNoise matches a small MEMS IMU of the class flown on RoboFly /
// RoboBee avionics (e.g. ICM-20600-class parts).
func DefaultNoise() Noise {
	return Noise{GyroStd: 0.005, AccelStd: 0.05, MagStd: 0.01, GyroBias: [3]float64{0.002, -0.001, 0.0015}}
}

// magField is the earth field direction used by the simulator (unit
// vector in the world frame, with realistic inclination).
var magField = [3]float64{0.43, 0.0, -0.90}

// Simulate samples traj at rateHz for duration seconds, producing noisy
// gyro/accel/mag measurements with ground truth. The generator is fully
// deterministic for a given seed: it is the first int(duration·rateHz)
// records of NewStream(traj, rateHz, noise, seed).
func Simulate(traj Trajectory, duration, rateHz float64, noise Noise, seed int64) []Record {
	s := NewStream(traj, rateHz, noise, seed)
	n := int(duration * rateHz)
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Next())
	}
	return out
}

// Stream generates Simulate's records one at a time, so a consumer that
// reads a prefix pays for only that prefix. Record i depends only on its
// time i·dt and the i-th group of nine noise draws, so any prefix is
// exactly Simulate's.
type Stream struct {
	traj  Trajectory
	dt    float64
	noise Noise
	rng   *rand.Rand
	i     int
}

// NewStream starts the record sequence of traj sampled at rateHz.
func NewStream(traj Trajectory, rateHz float64, noise Noise, seed int64) *Stream {
	return &Stream{traj: traj, dt: 1.0 / rateHz, noise: noise, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next record. It runs on plain float64 with no
// profiler hooks — its arithmetic is that of geom.Quat.RotationMatrix,
// mat's Transpose and MulVec, and geom.Quat.Mul in the same order — so
// a consumer may call it inside a profiled region without its work
// being counted.
func (s *Stream) Next() Record {
	dt, noise := s.dt, s.noise
	t := float64(s.i) * dt
	s.i++
	q, _ := s.traj(t)
	// Exact body angular rate from the quaternion derivative: the
	// analytic omega in the trajectory definitions is an Euler-rate
	// approximation, so recover ω = log(q(t)⁻¹ ⊗ q(t+h))/h instead,
	// keeping gyro readings exactly consistent with ground truth.
	h := dt / 8
	qn, _ := s.traj(t + h)
	omega := bodyRate(q, qn, h)
	r := rotationMatrix(q) // body->world; its transpose maps world->body

	// Specific force: in hover/quasi-static flight the accelerometer
	// reads the reaction to gravity rotated into the body frame.
	aBody := mulTransposed(&r, [3]float64{0, 0, Gravity})
	mBody := mulTransposed(&r, magField)

	rec := Record{T: t, Dt: dt, Truth: q}
	for k := 0; k < 3; k++ {
		rec.Gyro[k] = omega[k] + noise.GyroBias[k] + s.rng.NormFloat64()*noise.GyroStd
		rec.Accel[k] = aBody[k] + s.rng.NormFloat64()*noise.AccelStd
		rec.Mag[k] = mBody[k] + s.rng.NormFloat64()*noise.MagStd
	}
	return rec
}

// rotationMatrix is geom.Quat.RotationMatrix on float64, row-major.
func rotationMatrix(q geom.Quat[scalar.F64]) [9]float64 {
	w, x, y, z := q.Floats()
	xx, yy, zz := x*x, y*y, z*z
	xy, xz, yz := x*y, x*z, y*z
	wx, wy, wz := w*x, w*y, w*z
	return [9]float64{
		1 - 2*(yy+zz), 2 * (xy - wz), 2 * (xz + wy),
		2 * (xy + wz), 1 - 2*(xx+zz), 2 * (yz - wx),
		2 * (xz - wy), 2 * (yz + wx), 1 - 2*(xx+yy),
	}
}

// mulTransposed returns rᵀ·v, summed as mat's MulVec sums each row of
// the transpose.
func mulTransposed(r *[9]float64, v [3]float64) [3]float64 {
	var out [3]float64
	for i := 0; i < 3; i++ {
		var acc float64
		for k := 0; k < 3; k++ {
			acc = acc + r[k*3+i]*v[k]
		}
		out[i] = acc
	}
	return out
}

// HoverTrajectory models a flapping-wing vehicle in hover: small
// coupled roll/pitch oscillations at the body's low-frequency modes plus
// a slow yaw drift, the regime of the RoboBee motion-capture dataset.
func HoverTrajectory(rollAmp, pitchAmp, freqHz float64) Trajectory {
	w := 2 * math.Pi * freqHz
	return func(t float64) (geom.Quat[scalar.F64], [3]float64) {
		roll := rollAmp * math.Sin(w*t)
		pitch := pitchAmp * math.Sin(w*t*0.83+0.7)
		yaw := 0.05 * t
		q := eulerZYX(yaw, pitch, roll)
		omega := [3]float64{
			rollAmp * w * math.Cos(w*t),
			pitchAmp * w * 0.83 * math.Cos(w*t*0.83+0.7),
			0.05,
		}
		return q, omega
	}
}

// StriderLineTrajectory models the GammaBot water strider striding in a
// straight line: high-frequency pitch oscillation from the stroke with
// nearly fixed heading.
func StriderLineTrajectory(strokeHz, pitchAmp float64) Trajectory {
	w := 2 * math.Pi * strokeHz
	return func(t float64) (geom.Quat[scalar.F64], [3]float64) {
		pitch := pitchAmp * math.Sin(w*t)
		roll := 0.2 * pitchAmp * math.Sin(w*t*2+0.3)
		q := eulerZYX(0, pitch, roll)
		omega := [3]float64{
			0.2 * pitchAmp * w * 2 * math.Cos(w*t*2+0.3),
			pitchAmp * w * math.Cos(w*t),
			0,
		}
		return q, omega
	}
}

// StriderSteerTrajectory models an active steering maneuver: the stroke
// oscillation plus an aggressive yaw ramp — the dataset whose large gyro
// readings stress fixed-point dynamic range in Case Study #2.
func StriderSteerTrajectory(strokeHz, pitchAmp, yawRate float64) Trajectory {
	w := 2 * math.Pi * strokeHz
	return func(t float64) (geom.Quat[scalar.F64], [3]float64) {
		pitch := pitchAmp * math.Sin(w*t)
		yaw := yawRate*t + 0.3*math.Sin(2*math.Pi*1.5*t)
		q := eulerZYX(yaw, pitch, 0)
		omega := [3]float64{
			0,
			pitchAmp * w * math.Cos(w*t),
			yawRate + 0.3*2*math.Pi*1.5*math.Cos(2*math.Pi*1.5*t),
		}
		return q, omega
	}
}

// bodyRate recovers the body angular rate that carries q0 to q1 in h
// seconds, via the quaternion logarithm.
func bodyRate(q0, q1 geom.Quat[scalar.F64], h float64) [3]float64 {
	// d = q0.Conj().Mul(q1), op for op.
	w0, x0, y0, z0 := q0.Floats()
	w1, x1, y1, z1 := q1.Floats()
	x0, y0, z0 = -x0, -y0, -z0
	w := w0*w1 - x0*x1 - y0*y1 - z0*z1
	x := w0*x1 + x0*w1 + y0*z1 - z0*y1
	y := w0*y1 - x0*z1 + y0*w1 + z0*x1
	z := w0*z1 + x0*y1 - y0*x1 + z0*w1
	if w < 0 {
		w, x, y, z = -w, -x, -y, -z
	}
	vn := math.Sqrt(x*x + y*y + z*z)
	if vn < 1e-15 {
		return [3]float64{}
	}
	angle := 2 * math.Atan2(vn, w)
	k := angle / (vn * h)
	return [3]float64{x * k, y * k, z * k}
}

// eulerZYX builds a quaternion from yaw-pitch-roll (ZYX convention).
func eulerZYX(yaw, pitch, roll float64) geom.Quat[scalar.F64] {
	like := scalar.F64(0)
	cz, sz := math.Cos(yaw/2), math.Sin(yaw/2)
	cy, sy := math.Cos(pitch/2), math.Sin(pitch/2)
	cx, sx := math.Cos(roll/2), math.Sin(roll/2)
	return geom.Quat[scalar.F64]{
		W: like.FromFloat(cz*cy*cx + sz*sy*sx),
		X: like.FromFloat(cz*cy*sx - sz*sy*cx),
		Y: like.FromFloat(cz*sy*cx + sz*cy*sx),
		Z: like.FromFloat(sz*cy*cx - cz*sy*sx),
	}
}

// MaxRates reports the largest absolute gyro/accel/mag readings in a
// record stream — the quantity that determines viable Q-formats.
func MaxRates(recs []Record) (gyro, accel, mag float64) {
	for _, r := range recs {
		for k := 0; k < 3; k++ {
			gyro = math.Max(gyro, math.Abs(r.Gyro[k]))
			accel = math.Max(accel, math.Abs(r.Accel[k]))
			mag = math.Max(mag, math.Abs(r.Mag[k]))
		}
	}
	return gyro, accel, mag
}
