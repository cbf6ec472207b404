package core

import (
	"testing"

	"repro/internal/attitude"
	"repro/internal/imu"
)

// The attitude problem's lazily generated records are imu.Simulate's,
// bit for bit: all attitudeRecords of them, and again after the index
// wraps, without the stream ever growing past its length.
func TestIMUStreamPrefixMatchesSimulate(t *testing.T) {
	want := imu.Simulate(imu.HoverTrajectory(0.12, 0.1, 2), 2.0, 400, imu.DefaultNoise(), 303)
	if len(want) != attitudeRecords {
		t.Fatalf("Simulate made %d records, the problem wraps at %d", len(want), attitudeRecords)
	}
	p := newAttitudeProblem("mahony", attitude.IMUOnly)
	for setup := 0; setup < 2; setup++ {
		if err := p.Setup(); err != nil {
			t.Fatal(err)
		}
		if len(p.recs) != 0 {
			t.Fatalf("Setup left %d records generated", len(p.recs))
		}
		for i := 0; i < 2*attitudeRecords+7; i++ {
			if got := p.record(i); got != want[i%attitudeRecords] {
				t.Fatalf("setup %d: record %d = %+v, Simulate %+v", setup, i, got, want[i%attitudeRecords])
			}
		}
		if len(p.recs) != attitudeRecords {
			t.Fatalf("stream grew to %d records, want %d", len(p.recs), attitudeRecords)
		}
	}
}
