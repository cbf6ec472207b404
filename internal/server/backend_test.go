package server_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// srvLab is a measured backend covering madgwick on M4, registered once
// per process for the wire tests. Registration is process-global, like
// the kernels other tests register.
type srvLab struct{}

func (srvLab) Name() string        { return "srv-lab" }
func (srvLab) Source() string      { return harness.SourceMeasured }
func (srvLab) Fingerprint() string { return "wire-test" }
func (srvLab) Covers(kernel, arch string, cacheOn bool) bool {
	return strings.EqualFold(kernel, "madgwick") && strings.EqualFold(arch, "M4")
}
func (srvLab) Measure(req harness.MeasureRequest) (harness.Measurement, error) {
	return harness.SimBackend{}.Measure(req)
}

// TestSweepBackendField: the request's backend field selects a
// registered backend (provenance shows up in the served JSON), "sim"
// keeps the classic unlabeled bytes, and an unknown name is a 400 that
// lists the vocabulary — never a 500.
func TestSweepBackendField(t *testing.T) {
	if _, ok := harness.BackendByName("srv-lab"); !ok {
		if err := harness.RegisterBackend(srvLab{}); err != nil {
			t.Fatal(err)
		}
	}
	h := newTestServer()

	classic := postSweep(t, h, smallSweepBody)
	if classic.Code != 200 {
		t.Fatalf("classic sweep: %d: %s", classic.Code, classic.Body)
	}
	if strings.Contains(classic.Body.String(), `"backends"`) {
		t.Error("classic served sweep carries a backends block")
	}

	viaSim := postSweep(t, h, `{"kernels":["madgwick"],"archs":"M4","backend":"sim"}`)
	if viaSim.Code != 200 {
		t.Fatalf("backend=sim sweep: %d: %s", viaSim.Code, viaSim.Body)
	}
	if viaSim.Body.String() != classic.Body.String() {
		t.Error("backend=sim diverges from the classic bytes")
	}

	viaLab := postSweep(t, h, `{"kernels":["madgwick"],"archs":"M4","backend":"srv-lab"}`)
	if viaLab.Code != 200 {
		t.Fatalf("backend=srv-lab sweep: %d: %s", viaLab.Code, viaLab.Body)
	}
	body := viaLab.Body.String()
	for _, want := range []string{`"source": "measured"`, `"name": "srv-lab"`, `"backends"`} {
		if !strings.Contains(body, want) {
			t.Errorf("srv-lab sweep missing %s", want)
		}
	}
	if body == classic.Body.String() {
		t.Error("backend selection did not change the served report")
	}

	bad := postSweep(t, h, `{"kernels":["madgwick"],"archs":"M4","backend":"nope"}`)
	if bad.Code != 400 {
		t.Fatalf("unknown backend: %d, want 400: %s", bad.Code, bad.Body)
	}
	for _, want := range []string{"unknown backend", "nope", "sim"} {
		if !strings.Contains(bad.Body.String(), want) {
			t.Errorf("400 body %q missing %q", bad.Body, want)
		}
	}
}
