package harness_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/mcu"
)

// fakeBackend is a minimal Backend for registry and salt tests.
type fakeBackend struct {
	name   string
	source string
	fp     string
}

func (f fakeBackend) Name() string        { return f.name }
func (f fakeBackend) Source() string      { return f.source }
func (f fakeBackend) Fingerprint() string { return f.fp }
func (f fakeBackend) Measure(req harness.MeasureRequest) (harness.Measurement, error) {
	return harness.SimBackend{}.Measure(req)
}

func TestBackendRegistry(t *testing.T) {
	be, ok := harness.BackendByName("sim")
	if !ok {
		t.Fatal("built-in sim backend not registered")
	}
	if be.Name() != "sim" || be.Source() != harness.SourceModeled {
		t.Fatalf("sim backend identity = %s/%s", be.Name(), be.Source())
	}
	if _, ok := harness.BackendByName("SIM"); !ok {
		t.Error("backend lookup is not case-insensitive")
	}
	if _, ok := harness.BackendByName("no-such-backend"); ok {
		t.Error("unknown backend resolved")
	}

	if err := harness.RegisterBackend(nil); err == nil {
		t.Error("nil backend registered")
	}
	if err := harness.RegisterBackend(fakeBackend{name: "", source: harness.SourceMeasured}); err == nil {
		t.Error("empty-name backend registered")
	}
	if err := harness.RegisterBackend(fakeBackend{name: "lab", source: "vibes"}); err == nil {
		t.Error("backend with unknown source label registered")
	}
	if err := harness.RegisterBackend(fakeBackend{name: "sim", source: harness.SourceModeled}); err == nil {
		t.Error("duplicate of the built-in sim registered")
	}

	if err := harness.RegisterBackend(fakeBackend{name: "Lab-Registry-Test", source: harness.SourceMeasured}); err != nil {
		t.Fatalf("valid backend rejected: %v", err)
	}
	if _, ok := harness.BackendByName("lab-registry-test"); !ok {
		t.Error("registered backend not resolvable by lowercase name")
	}
	if err := harness.RegisterBackend(fakeBackend{name: "lab-registry-test", source: harness.SourceMeasured}); err == nil {
		t.Error("duplicate registration accepted")
	}
	names := harness.BackendNames()
	found := false
	for i, n := range names {
		if n == "lab-registry-test" {
			found = true
		}
		if i > 0 && names[i-1] > n {
			t.Errorf("BackendNames not sorted: %v", names)
		}
	}
	if !found {
		t.Errorf("BackendNames missing registered backend: %v", names)
	}
}

func TestBackendSalt(t *testing.T) {
	if s := harness.BackendSalt(nil); s != "" {
		t.Errorf("nil backend salt = %q, want empty", s)
	}
	// The canonical sim backend IS the classic path: no salt, so
	// explicit -backend sim shares every cache entry with plain sweeps.
	if s := harness.BackendSalt(harness.SimBackend{}); s != "" {
		t.Errorf("sim backend salt = %q, want empty", s)
	}
	if s := harness.BackendSalt(fakeBackend{name: "lab", source: harness.SourceMeasured}); s != "lab" {
		t.Errorf("salt = %q, want %q", s, "lab")
	}
	if s := harness.BackendSalt(fakeBackend{name: "lab", source: harness.SourceMeasured, fp: "abc"}); s != "lab+abc" {
		t.Errorf("salt with fingerprint = %q, want %q", s, "lab+abc")
	}
}

// TestMeasureOnBackendEquivalence pins the seam's core invariant: a nil
// backend and the explicit SimBackend both produce the exact
// measurement the classic MeasureOn path produces — only the
// provenance label differs.
func TestMeasureOnBackendEquivalence(t *testing.T) {
	pp, err := harness.Prepare(&vvadd{n: 256}, harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	classic, err := pp.MeasureOn(mcu.M4, mcu.PrecF32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if classic.Source != "" {
		t.Errorf("classic result carries source %q, want empty", classic.Source)
	}
	viaNil, err := pp.MeasureOnBackend(mcu.M4, mcu.PrecF32, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaNil.Measured != classic.Measured || viaNil.Source != "" {
		t.Errorf("nil-backend measurement diverges from MeasureOn: %+v vs %+v", viaNil.Measured, classic.Measured)
	}
	viaSim, err := pp.MeasureOnBackend(mcu.M4, mcu.PrecF32, cfg, harness.SimBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if viaSim.Measured != classic.Measured {
		t.Errorf("sim-backend measurement diverges from MeasureOn: %+v vs %+v", viaSim.Measured, classic.Measured)
	}
	if viaSim.Source != harness.SourceModeled {
		t.Errorf("sim-backend source = %q, want %q", viaSim.Source, harness.SourceModeled)
	}
}

func TestRegisterBackendErrorNamesTheProblem(t *testing.T) {
	err := harness.RegisterBackend(fakeBackend{name: "bad-source-probe", source: "neither"})
	if err == nil || !strings.Contains(err.Error(), "neither") {
		t.Errorf("bad-source error does not name the label: %v", err)
	}
}

// The -backend/-tracefile flag matrix every CLI resolves through
// ResolveBackend: nil means the classic simulator path.
func TestResolveBackend(t *testing.T) {
	if err := harness.RegisterBackend(fakeBackend{name: "resolve-lab", source: harness.SourceMeasured}); err != nil {
		t.Fatal(err)
	}
	const traceFile = "testdata/madgwick_m4_trace.csv"
	for _, tc := range []struct {
		name, backend, traceFile string
		want                     string   // resolved backend name; "" means nil
		errHas                   []string // non-empty: must fail, naming each
	}{
		{name: "no-flags"},
		{name: "sim", backend: "sim"},
		{name: "sim-spelled-loosely", backend: " SIM "},
		{name: "registered", backend: "Resolve-Lab", want: "resolve-lab"},
		{name: "trace-without-file", backend: "trace", errHas: []string{"-tracefile"}},
		{name: "tracefile-plus-sim", backend: "sim", traceFile: traceFile, errHas: []string{"cannot combine", "sim"}},
		{name: "tracefile-plus-lab", backend: "resolve-lab", traceFile: traceFile, errHas: []string{"cannot combine", "resolve-lab"}},
		{name: "unknown", backend: "warp9", errHas: []string{`"warp9"`, "sim", "resolve-lab"}},
		{name: "tracefile", traceFile: traceFile, want: "trace"},
		{name: "tracefile-explicit-trace", backend: "trace", traceFile: traceFile, want: "trace"},
		{name: "missing-tracefile", traceFile: "testdata/no-such.csv", errHas: []string{"no-such.csv"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be, err := harness.ResolveBackend(tc.backend, tc.traceFile)
			if len(tc.errHas) > 0 {
				if err == nil {
					t.Fatalf("resolved %v, want an error", be)
				}
				if be != nil {
					t.Errorf("error path returned non-nil backend %v", be)
				}
				for _, s := range tc.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not mention %q", err, s)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.want == "" && be != nil:
				t.Errorf("resolved %s, want nil (classic path)", be.Name())
			case tc.want != "" && (be == nil || be.Name() != tc.want):
				t.Errorf("resolved %v, want %s", be, tc.want)
			}
		})
	}
}

// MeasureOn renders each cell's waveform into a pooled buffer, so a
// measurement allocates only the four-edge GPIO event log, whatever
// the trace length. A per-cell make of the waveform — tens of
// kilobytes at the default rep count — would add one allocation here.
func TestMeasureOnReusesTraceBuffer(t *testing.T) {
	pp, err := harness.Prepare(&vvadd{n: 64}, harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	if _, err := pp.MeasureOn(mcu.M33, mcu.PrecF32, cfg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := pp.MeasureOn(mcu.M33, mcu.PrecF32, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("MeasureOn allocates %v times per call, want at most 1 (the event log)", n)
	}
}
