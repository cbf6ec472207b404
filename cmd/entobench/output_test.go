package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/report"
)

// TestOutputFlagFailures: `trace -o` and `merge -o` must fail when the
// output cannot be written, whether the create fails (a missing
// directory) or the write does (/dev/full), and succeed on a writable
// path.
func TestOutputFlagFailures(t *testing.T) {
	dir := t.TempDir()
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick not in the suite")
	}
	sr, err := report.RunShard([]core.Spec{spec}, []mcu.Arch{mcu.M4},
		core.SweepOptions{Workers: 1, ShardIndex: 1, ShardCount: 1})
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
		})
	}
}
