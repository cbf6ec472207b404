package harness_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// synthCaptures renders vvadd's cache-on and cache-off cells as
// captures — the same export path `entobench trace` uses.
func synthCaptures(t *testing.T) (*harness.Prepared, []harness.TraceCapture) {
	t.Helper()
	cfg := harness.DefaultConfig()
	pp, err := harness.Prepare(&vvadd{n: 256}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var captures []harness.TraceCapture
	for _, cacheOn := range []bool{true, false} {
		c := cfg
		c.CacheOn = cacheOn
		captures = append(captures, pp.SynthesizeCapture(mcu.M4, mcu.PrecF32, c))
	}
	return pp, captures
}

func TestTraceCSVRoundTrip(t *testing.T) {
	_, captures := synthCaptures(t)
	var buf bytes.Buffer
	if err := harness.WriteTraceCSV(&buf, captures); err != nil {
		t.Fatal(err)
	}
	got, err := harness.ReadTraceCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(captures) {
		t.Fatalf("round trip returned %d captures, want %d", len(got), len(captures))
	}
	for i, want := range captures {
		g := got[i]
		if g.Kernel != want.Kernel || g.Arch != want.Arch || g.CacheOn != want.CacheOn || g.Reps != want.Reps {
			t.Errorf("capture %d identity mismatch: %+v", i, g)
		}
		if g.Trace.SampleHz != want.Trace.SampleHz || g.Trace.StartS != want.Trace.StartS {
			t.Errorf("capture %d trace meta mismatch", i)
		}
		if len(g.Trace.Power) != len(want.Trace.Power) {
			t.Fatalf("capture %d: %d samples, want %d", i, len(g.Trace.Power), len(want.Trace.Power))
		}
		for j := range g.Trace.Power {
			if g.Trace.Power[j] != want.Trace.Power[j] {
				t.Fatalf("capture %d sample %d not bit-exact: %g vs %g", i, j, g.Trace.Power[j], want.Trace.Power[j])
			}
		}
		if len(g.Events) != len(want.Events) {
			t.Fatalf("capture %d: %d events, want %d", i, len(g.Events), len(want.Events))
		}
		for j := range g.Events {
			if g.Events[j] != want.Events[j] {
				t.Errorf("capture %d event %d = %+v, want %+v", i, j, g.Events[j], want.Events[j])
			}
		}
	}
}

// TestTraceBackendReplayMatchesSim is the seam's round-trip guarantee:
// replaying a synthesized capture through the trace backend recovers
// exactly the measurement the simulator path produces for that cell.
func TestTraceBackendReplayMatchesSim(t *testing.T) {
	pp, captures := synthCaptures(t)
	tb, err := harness.NewTraceBackend(captures)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name() != "trace" || tb.Source() != harness.SourceMeasured {
		t.Fatalf("trace backend identity = %s/%s", tb.Name(), tb.Source())
	}
	if tb.Fingerprint() == "" {
		t.Fatal("trace backend has no fingerprint")
	}
	if !tb.Covers("VVADD", "m4", true) {
		t.Error("coverage lookup is not case-insensitive")
	}
	if tb.Covers("vvadd", "M33", true) {
		t.Error("claims coverage of an uncaptured board")
	}
	for _, cacheOn := range []bool{true, false} {
		cfg := harness.DefaultConfig()
		cfg.CacheOn = cacheOn
		sim, err := pp.MeasureOnBackend(mcu.M4, mcu.PrecF32, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := pp.MeasureOnBackend(mcu.M4, mcu.PrecF32, cfg, tb)
		if err != nil {
			t.Fatal(err)
		}
		if replayed.Measured != sim.Measured {
			t.Errorf("cache=%v replay diverges: %+v vs %+v", cacheOn, replayed.Measured, sim.Measured)
		}
		if replayed.Source != harness.SourceMeasured {
			t.Errorf("cache=%v replayed source = %q", cacheOn, replayed.Source)
		}
	}
}

// TestTraceBackendFingerprint: identical data — any file order — salts
// identically; different data salts differently.
func TestTraceBackendFingerprint(t *testing.T) {
	_, captures := synthCaptures(t)
	fwd, err := harness.NewTraceBackend(captures)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := harness.NewTraceBackend([]harness.TraceCapture{captures[1], captures[0]})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Fingerprint() != rev.Fingerprint() {
		t.Error("capture order changed the fingerprint")
	}
	only, err := harness.NewTraceBackend(captures[:1])
	if err != nil {
		t.Fatal(err)
	}
	if only.Fingerprint() == fwd.Fingerprint() {
		t.Error("different capture sets share a fingerprint")
	}
}

func TestNewTraceBackendRejects(t *testing.T) {
	if _, err := harness.NewTraceBackend(nil); err == nil {
		t.Error("empty capture set accepted")
	}
	_, captures := synthCaptures(t)
	if _, err := harness.NewTraceBackend([]harness.TraceCapture{captures[0], captures[0]}); err == nil {
		t.Error("duplicate cell accepted")
	}
}

// TestReadTraceCSVTolerance: real exporter output is messy — CRLF,
// comment lines, blank lines, and out-of-order samples must all parse
// to the same captures as the canonical file.
func TestReadTraceCSVTolerance(t *testing.T) {
	_, captures := synthCaptures(t)
	var buf bytes.Buffer
	if err := harness.WriteTraceCSV(&buf, captures[:1]); err != nil {
		t.Fatal(err)
	}
	want, err := harness.ReadTraceCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Scramble: move the last sample row right after the meta row, so
	// timestamps arrive out of order.
	last := lines[len(lines)-1]
	messy := append([]string{}, lines[0], "# exporter: bench rig v2", lines[1], last, "")
	messy = append(messy, lines[2:len(lines)-1]...)
	got, err := harness.ReadTraceCSV(strings.NewReader(strings.Join(messy, "\r\n") + "\r\n"))
	if err != nil {
		t.Fatalf("messy-but-legal file rejected: %v", err)
	}
	if len(got) != 1 || len(got[0].Trace.Power) != len(want[0].Trace.Power) {
		t.Fatalf("messy parse lost samples: %d vs %d", len(got[0].Trace.Power), len(want[0].Trace.Power))
	}
	for i := range got[0].Trace.Power {
		if got[0].Trace.Power[i] != want[0].Trace.Power[i] {
			t.Fatalf("sample %d not re-sorted into place", i)
		}
	}
}

func TestReadTraceCSVErrors(t *testing.T) {
	const header = "kernel,arch,cache,kind,time_s,value,detail\n"
	meta := "vvadd,M4,true,meta,0,4,100000\n"
	sample := "vvadd,M4,true,sample,0,0.05,\n"
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty trace CSV"},
		{"wrong header", "a,b,c\n", "unrecognized trace CSV header"},
		{"field count", header + "vvadd,M4,true\n", "line 2"},
		{"bad cache", header + "vvadd,M4,maybe,meta,0,4,100000\n", "cache"},
		{"bad time", header + "vvadd,M4,true,meta,soon,4,100000\n", "time_s"},
		{"bad reps", header + "vvadd,M4,true,meta,0,zero,100000\n", "reps"},
		{"bad rate", header + "vvadd,M4,true,meta,0,4,-1\n", "sample rate"},
		{"dup meta", header + meta + sample + meta, "duplicate meta"},
		{"bad power", header + meta + "vvadd,M4,true,sample,0,lots,\n", "power"},
		{"bad pin", header + meta + sample + "vvadd,M4,true,gpio,0,reset,rise\n", "pin"},
		{"bad edge", header + meta + sample + "vvadd,M4,true,gpio,0,trigger,sideways\n", "edge"},
		{"bad kind", header + meta + "vvadd,M4,true,wave,0,0.05,\n", "row kind"},
		{"no meta", header + sample, "no meta row"},
		{"no samples", header + meta, "no power samples"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := harness.ReadTraceCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestTraceBackendGoldenFixture replays the checked-in capture file
// (generated by `entobench trace madgwick -arch M4`) and checks the
// measured cells land within the harness's standard 5% self-check
// tolerance of the simulator path. A deliberate model change that
// moves madgwick×M4 by more than that should regenerate the fixture
// with the same command.
func TestTraceBackendGoldenFixture(t *testing.T) {
	tb, err := harness.LoadTraceBackend("testdata/madgwick_m4_trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Cells() != 2 {
		t.Fatalf("fixture covers %d cells, want 2", tb.Cells())
	}
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("no madgwick kernel")
	}
	arch, ok := mcu.ByName("M4")
	if !ok {
		t.Fatal("no M4 board")
	}
	cfg := harness.DefaultConfig()
	pp, err := harness.Prepare(spec.Factory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cacheOn := range []bool{true, false} {
		c := cfg
		c.CacheOn = cacheOn
		sim, err := pp.MeasureOnBackend(arch, spec.Prec, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pp.MeasureOnBackend(arch, spec.Prec, c, tb)
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != harness.SourceMeasured {
			t.Errorf("cache=%v source = %q", cacheOn, got.Source)
		}
		for _, m := range []struct {
			name     string
			got, sim float64
		}{
			{"latency", got.Measured.LatencyS, sim.Measured.LatencyS},
			{"energy", got.Measured.EnergyJ, sim.Measured.EnergyJ},
			{"avg power", got.Measured.AvgPowerW, sim.Measured.AvgPowerW},
			{"peak power", got.Measured.PeakPowerW, sim.Measured.PeakPowerW},
		} {
			if e := harness.RelError(m.got, m.sim); e > 0.05 {
				t.Errorf("cache=%v %s off by %.1f%%: fixture %g vs sim %g",
					cacheOn, m.name, e*100, m.got, m.sim)
			}
		}
	}
}

// FuzzReadTraceCSV feeds arbitrary bytes through the trace-capture
// reader. It must never panic, and a capture set it accepts must read
// back identically after WriteTraceCSV: the writer's encoding carries
// every field of a capture, so equal encodings are equal captures.
func FuzzReadTraceCSV(f *testing.F) {
	seed, err := os.ReadFile("testdata/madgwick_m4_trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	encode := func(t *testing.T, captures []harness.TraceCapture) []byte {
		var buf bytes.Buffer
		if err := harness.WriteTraceCSV(&buf, captures); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := harness.ReadTraceCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := encode(t, first)
		again, err := harness.ReadTraceCSV(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("written capture set rejected: %v", err)
		}
		if len(again) != len(first) || !bytes.Equal(encode(t, again), out) {
			t.Fatal("capture set changed across a write/read round trip")
		}
	})
}
