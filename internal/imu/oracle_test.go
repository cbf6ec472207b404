package imu

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// simulateHooked is the record loop through geom and mat on
// scalar.F64: Stream.Next's oracle.
func simulateHooked(traj Trajectory, duration, rateHz float64, noise Noise, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	dt := 1.0 / rateHz
	n := int(duration * rateHz)
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		q, _ := traj(t)
		h := dt / 8
		qn, _ := traj(t + h)
		d := q.Conj().Mul(qn)
		w, x, y, z := d.Floats()
		var omega [3]float64
		if w < 0 {
			w, x, y, z = -w, -x, -y, -z
		}
		// bodyRate's tail, unchanged.
		if vn := math.Sqrt(x*x + y*y + z*z); vn >= 1e-15 {
			k := 2 * math.Atan2(vn, w) / (vn * h)
			omega = [3]float64{x * k, y * k, z * k}
		}
		rt := q.RotationMatrix().Transpose()
		aBody := rt.MulVec(mat.VecFromFloats(scalar.F64(0), []float64{0, 0, Gravity})).Floats()
		mBody := rt.MulVec(mat.VecFromFloats(scalar.F64(0), magField[:])).Floats()
		rec := Record{T: t, Dt: dt, Truth: q}
		for k := 0; k < 3; k++ {
			rec.Gyro[k] = omega[k] + noise.GyroBias[k] + rng.NormFloat64()*noise.GyroStd
			rec.Accel[k] = aBody[k] + rng.NormFloat64()*noise.AccelStd
			rec.Mag[k] = mBody[k] + rng.NormFloat64()*noise.MagStd
		}
		out = append(out, rec)
	}
	return out
}

// Stream's records — Simulate's — are the hooked loop's bit for bit,
// for every trajectory the suite and the case studies simulate, and
// generating them inside a profiled region charges nothing.
func TestStreamMatchesHookedSimulate(t *testing.T) {
	cases := []struct {
		traj Trajectory
		dur  float64
		seed int64
	}{
		{HoverTrajectory(0.12, 0.1, 2), 2, 303},
		{HoverTrajectory(0.12, 0.1, 2), 3, 21},
		{StriderLineTrajectory(5, 0.08), 3, 22},
		{StriderSteerTrajectory(5, 0.08, 12), 3, 23},
	}
	for k, c := range cases {
		want := simulateHooked(c.traj, c.dur, 400, DefaultNoise(), c.seed)
		var got []Record
		if cnt := profile.Collect(func() { got = Simulate(c.traj, c.dur, 400, DefaultNoise(), c.seed) }); cnt != (profile.Counts{}) {
			t.Errorf("case %d: Simulate charged %+v", k, cnt)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d records, hooked %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: record %d = %+v, hooked %+v", k, i, got[i], want[i])
			}
		}
	}
}
