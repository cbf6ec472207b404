package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/report"
)

// TestOutputFlagFailures: `trace -o`, `merge -o` and `sweep
// -memprofile` must fail when the output cannot be written, whether the
// create fails (a missing directory) or the write does (/dev/full), and
// succeed on a writable path.
func TestOutputFlagFailures(t *testing.T) {
	dir := t.TempDir()
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick not in the suite")
	}
	sr, err := report.RunShard([]core.Spec{spec}, []mcu.Arch{mcu.M4}, 1, 1, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(dir, "shard.json")
	f, err := os.Create(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.WriteShardReport(f, sr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	good := filepath.Join(dir, "out")
	if err := traceExport([]string{"madgwick", "-o", good}); err != nil {
		t.Fatalf("trace -o %s: %v", good, err)
	}
	if err := merge([]string{"-o", good, bundle}); err != nil {
		t.Fatalf("merge -o %s: %v", good, err)
	}
	if fi, err := os.Stat(good); err != nil || fi.Size() == 0 {
		t.Fatalf("merge -o wrote nothing: %v", err)
	}
	sweepArgs := func(path string) []string { return []string{"-archs", "M4", "-json", "-memprofile", path} }
	if err := sweep(sweepArgs(good)); err != nil {
		t.Fatalf("sweep -memprofile %s: %v", good, err)
	}

	bad := map[string]string{"missing-dir": filepath.Join(dir, "no-such-dir", "out")}
	if _, err := os.Stat("/dev/full"); err == nil {
		bad["dev-full"] = "/dev/full"
	}
	for name, path := range bad {
		t.Run(name, func(t *testing.T) {
			if err := traceExport([]string{"madgwick", "-o", path}); err == nil {
				t.Errorf("trace -o %s succeeded", path)
			}
			if err := merge([]string{"-o", path, bundle}); err == nil {
				t.Errorf("merge -o %s succeeded", path)
			}
			if err := sweep(sweepArgs(path)); err == nil {
				t.Errorf("sweep -memprofile %s succeeded", path)
			}
		})
	}
}

// TestRunCSVAppendsOneTable: repeated `run -csv` calls into one file
// build a single CSV table — the header once, then one row per run.
func TestRunCSVAppendsOneTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.csv")
	kernels := []string{"madgwick", "fly-lqr"}
	for _, k := range kernels {
		if err := run([]string{k, "-csv", path}); err != nil {
			t.Fatalf("run %s -csv: %v", k, err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(kernels) || recs[0][0] != "kernel" {
		t.Fatalf("log = %q, want one header and %d rows", recs, len(kernels))
	}
	for i, k := range kernels {
		if recs[1+i][0] != k {
			t.Errorf("row %d kernel = %q, want %q", i, recs[1+i][0], k)
		}
	}
}
