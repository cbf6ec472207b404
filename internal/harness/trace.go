package harness

import (
	"errors"
	"math"

	"repro/internal/mcu"
)

// SampleHz is the current-probe sampling rate (STLINK-V3PWR at 100 kHz).
const SampleHz = 100e3

// Trace is a sampled current/power waveform, in watts at the supply.
type Trace struct {
	SampleHz float64
	Power    []float64
	StartS   float64 // timestamp of sample 0 on the logic-analyzer clock
}

// SynthesizeTrace renders the power waveform and GPIO event log of one
// harness run: lead-in idle, a trigger edge, the latency-pin ROI
// spanning all reps, then tail idle. The waveform carries the modeled
// average power with deterministic activity bursts that reach the
// modeled peak — what an inline current probe actually records. The
// outside-ROI floor is the board model's declared idle draw
// (Arch.IdlePowerW), so custom boards synthesize with their own sleep
// current instead of a hard-coded table.
func SynthesizeTrace(est mcu.Estimate, arch mcu.Arch, reps int, seed int64) (Trace, []GPIOEvent) {
	return synthesizeTrace(nil, est, arch, reps, seed)
}

// synthesizeTrace is SynthesizeTrace rendering into buf's backing array
// when it is large enough (every sample is written, so its old contents
// never show); Trace.Power aliases buf then.
func synthesizeTrace(buf []float64, est mcu.Estimate, arch mcu.Arch, reps int, seed int64) (Trace, []GPIOEvent) {
	idle := arch.IdlePowerW()
	roiDur := est.LatencyS * float64(reps)
	lead := 500e-6
	tail := 500e-6
	total := lead + roiDur + tail
	n := int(total*SampleHz) + 2

	if cap(buf) < n {
		buf = make([]float64, n)
	}
	tr := Trace{SampleHz: SampleHz, Power: buf[:n]}
	// Deterministic small-period burst pattern: a fraction of samples
	// sit at the peak, the rest are rebalanced so the mean stays at the
	// modeled average (energy-preserving).
	const burstDuty = 0.05
	base := est.AvgPowerW
	peak := est.PeakPowerW
	low := base
	if peak > base {
		low = (base - burstDuty*peak) / (1 - burstDuty)
		if low < 0 {
			low = 0
		}
	}
	rng := seed*6364136223846793005 + 1442695040888963407
	nextRand := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(uint64(rng)>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		t := float64(i) / SampleHz
		switch {
		case t < lead || t >= lead+roiDur:
			tr.Power[i] = idle * (1 + 0.01*(nextRand()-0.5))
		default:
			if nextRand() < burstDuty {
				tr.Power[i] = peak
			} else {
				tr.Power[i] = low * (1 + 0.005*(nextRand()-0.5))
			}
		}
	}

	events := []GPIOEvent{
		{Pin: PinTrigger, Rising: true, TimeS: lead * 0.2},
		{Pin: PinLatency, Rising: true, TimeS: lead},
		{Pin: PinLatency, Rising: false, TimeS: lead + roiDur},
		{Pin: PinTrigger, Rising: false, TimeS: lead + roiDur + tail*0.5},
	}
	return tr, events
}

// Analyze recovers per-rep latency, energy, and peak power from a trace
// plus logic-analyzer events — the Go port of the paper's Python
// synchronization script. The rep count comes from the benchmark build
// configuration, exactly as the paper's script reads it from JSON.
func Analyze(tr Trace, events []GPIOEvent, reps int) (Measurement, error) {
	var roiStart, roiEnd float64
	haveStart, haveEnd := false, false
	for _, e := range events {
		if e.Pin != PinLatency {
			continue
		}
		if e.Rising && !haveStart {
			roiStart = e.TimeS
			haveStart = true
		}
		if !e.Rising && haveStart {
			roiEnd = e.TimeS
			haveEnd = true
		}
	}
	if !haveStart || !haveEnd || roiEnd <= roiStart {
		return Measurement{}, errors.New("harness: no latency-pin ROI in event log")
	}
	i0 := int((roiStart - tr.StartS) * tr.SampleHz)
	i1 := int((roiEnd - tr.StartS) * tr.SampleHz)
	if i0 < 0 {
		i0 = 0
	}
	if i1 >= len(tr.Power) {
		i1 = len(tr.Power) - 1
	}
	if i1 <= i0 {
		return Measurement{}, errors.New("harness: ROI shorter than one probe sample")
	}
	var sum, peak float64
	for i := i0; i < i1; i++ {
		sum += tr.Power[i]
		if tr.Power[i] > peak {
			peak = tr.Power[i]
		}
	}
	nSamples := float64(i1 - i0)
	avg := sum / nSamples
	roiDur := roiEnd - roiStart
	if reps < 1 {
		reps = 1
	}
	return Measurement{
		LatencyS:   roiDur / float64(reps),
		EnergyJ:    avg * roiDur / float64(reps),
		AvgPowerW:  avg,
		PeakPowerW: peak,
		Reps:       reps,
	}, nil
}

// RelError is a helper for tests and the self-check: |a-b| / max(|b|, ε).
func RelError(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-30 {
		den = 1e-30
	}
	return math.Abs(a-b) / den
}
