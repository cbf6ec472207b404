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
	"repro/internal/report"
)

const (
	countsGoldenPath    = "testdata/kernel_counts.golden"
	cs2CountsGoldenPath = "testdata/cs2_counts.golden"
)

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
	checkLinesGolden(t, countsGoldenPath, b.String())
}

// TestCS2CountsGolden pins Case Study #2's per-update counts: one line
// per Table VII row (filter, mode, format) and one per Fig 4 Q-format
// point at the pinned step, so a drift names the filter and format
// where the Table VII and Fig 4 digests only say that some byte moved.
// Regenerate after a deliberate change with:
//
//	go test ./internal/report -run TestCS2CountsGolden -update
func TestCS2CountsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("counts are recorded on amd64; %s may fuse multiply-add and take other data-dependent paths", runtime.GOARCH)
	}
	checkLinesGolden(t, cs2CountsGoldenPath, strings.Join(report.CS2CountsLines(pinFig4Step), "\n")+"\n")
}

// checkLinesGolden compares got with the golden file at path, or
// rewrites the file under -update. On drift it prints each differing
// line with its number.
func checkLinesGolden(t *testing.T, path, got string) {
	t.Helper()
	if updateGolden() {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden regenerated: %s", path)
		return
	}
	raw, err := os.ReadFile(path)
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
	t.Errorf("counts drifted from %s (regenerate with -update if intended):\n%s", path, diff.String())
}
