package report_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/profile"
)

const countsGoldenPath = "testdata/kernel_counts.golden"

// countsLine renders one kernel's golden line: its static and dynamic
// F/I/M/B counts and its validation verdict.
func countsLine(r core.Record) string {
	c := func(n profile.Counts) string { return fmt.Sprintf("F=%d I=%d M=%d B=%d", n.F, n.I, n.M, n.B) }
	verdict := "PASS"
	if !r.Valid {
		verdict = "FAIL"
		if r.ValidE != nil {
			verdict += ": " + r.ValidE.Error()
		}
	}
	return fmt.Sprintf("%s | static %s | dynamic %s | %s", r.Spec.Name, c(r.Static), c(r.Dynamic), verdict)
}

// TestKernelCountsGolden pins every Table IV kernel's counts and verdict
// line by line, so a drift names the kernel and class that moved where
// TestOutputDigestsPinned only says that some byte did. Regenerate after
// a deliberate change with:
//
//	go test ./internal/report -run TestKernelCountsGolden -update
func TestKernelCountsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("counts are recorded on amd64; %s may fuse multiply-add and take other data-dependent paths", runtime.GOARCH)
	}
	specs := core.Suite()
	if len(specs) < 31 {
		t.Fatalf("suite has %d kernels, want at least the 31 built-ins", len(specs))
	}
	recs, err := core.CharacterizeSuiteOpts(specs[:31], mcu.TableIVSet(), core.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(countsLine(r) + "\n")
	}
	got := b.String()
	if updateGolden() {
		if err := os.WriteFile(countsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden regenerated: %s", countsGoldenPath)
		return
	}
	raw, err := os.ReadFile(countsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var diff strings.Builder
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			fmt.Fprintf(&diff, "line %d\n  want %s\n  got  %s\n", i+1, w, g)
		}
	}
	t.Errorf("kernel counts drifted from %s (regenerate with -update if intended):\n%s", countsGoldenPath, diff.String())
}
