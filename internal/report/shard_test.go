package report_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// runShards partitions the sweep N ways, round-trips every bundle
// through its wire format (exactly what `entobench merge` reads), and
// returns the decoded bundles.
func runShards(t testing.TB, specs []core.Spec, archs []mcu.Arch, n int) []report.ShardReport {
	t.Helper()
	var shards []report.ShardReport
	for i := 1; i <= n; i++ {
		sr, err := report.RunShard(specs, archs, i, n, core.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		var buf bytes.Buffer
		if err := report.WriteShardReport(&buf, sr); err != nil {
			t.Fatal(err)
		}
		decoded, err := report.ReadShardReport(&buf)
		if err != nil {
			t.Fatalf("shard %d/%d round trip: %v", i, n, err)
		}
		shards = append(shards, decoded)
	}
	return shards
}

// The distribution invariant: N independent shard runs, merged, produce
// v1 JSON byte-identical to one single-process sweep — for several N,
// and regardless of bundle order at merge time.
func TestShardMergeByteIdenticalToFullSweep(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})

	for _, n := range []int{2, 3, 5} {
		shards := runShards(t, specs, archs, n)
		// Merge must not care about bundle order: reverse it.
		for i, j := 0, len(shards)-1; i < j; i, j = i+1, j-1 {
			shards[i], shards[j] = shards[j], shards[i]
		}
		c, err := report.MergeShards(shards)
		if err != nil {
			t.Fatalf("merge %d-way: %v", n, err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("%d-way shard merge diverged from the single-process sweep", n)
		}
	}
}

// A shard set executes each kernel once: over the full suite on Table
// IV, the shards' host Solves sum to the unsharded sweep's, and every
// kernel lands in exactly one bundle.
func TestShardSetExecutesEachKernelOnce(t *testing.T) {
	specs, archs := core.Suite(), mcu.TableIVSet()
	hostReps := func() uint64 { return obs.Counters()[obs.CounterHarnessHostReps] }
	before := hostReps()
	if _, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	unsharded := hostReps() - before
	if unsharded == 0 {
		t.Fatal("the unsharded sweep executed no host reps")
	}
	for _, n := range []int{2, 3} {
		before := hostReps()
		shards := runShards(t, specs, archs, n)
		if got := hostReps() - before; got != unsharded {
			t.Errorf("%d-way shard set executed %d host reps, the unsharded sweep %d", n, got, unsharded)
		}
		owner := make([]int, len(specs))
		for _, s := range shards {
			for _, k := range s.Kernels {
				if k.Name != specs[k.Index].Name {
					t.Fatalf("%d-way: shard %d kernel %d is %s, want %s", n, s.Shard, k.Index, k.Name, specs[k.Index].Name)
				}
				if owner[k.Index] != 0 {
					t.Fatalf("%d-way: %s in shards %d and %d", n, k.Name, owner[k.Index], s.Shard)
				}
				owner[k.Index] = s.Shard
			}
		}
		for i, o := range owner {
			if o == 0 {
				t.Errorf("%d-way: no shard holds %s", n, specs[i].Name)
			}
		}
	}
}

// Sharding composes with the persistent cache: shard runs backed by a
// warm cache still produce the same bundles, so distribution and
// caching can be combined freely.
func TestShardRunsComposeWithCellCache(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})

	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var shards []report.ShardReport
	for i := 1; i <= 2; i++ {
		sr, err := report.RunShard(specs, archs, i, 2, core.SweepOptions{Workers: 1, CellCache: cache})
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		shards = append(shards, sr)
	}
	c, err := report.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, buf.Bytes()) {
		t.Fatal("cached shard merge diverged from the single-process sweep")
	}
}

// withKernels returns sr with its kernels and their cells copied, so a
// case can edit them without touching the shared bundles.
func withKernels(sr report.ShardReport) report.ShardReport {
	sr.Kernels = append([]report.ShardKernel(nil), sr.Kernels...)
	for i := range sr.Kernels {
		sr.Kernels[i].Cells = append([]report.ShardCell(nil), sr.Kernels[i].Cells...)
	}
	return sr
}

// Merge validation: every malformed combination is rejected with a
// diagnosable error instead of assembling a silently wrong report. Each
// case's bundles go through the wire format, as `entobench merge`
// reads them; the error may come from the read or the merge.
func TestMergeShardsValidation(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	shards := runShards(t, specs, archs, 2)

	cases := []struct {
		name    string
		mutate  func() []report.ShardReport
		wantSub string
	}{
		{"no bundles", func() []report.ShardReport { return nil }, "no shard bundles"},
		{"missing shard", func() []report.ShardReport {
			return shards[:1]
		}, "got 1 bundles"},
		{"duplicate shard", func() []report.ShardReport {
			return []report.ShardReport{shards[0], shards[0]}
		}, "twice"},
		{"partition size mismatch", func() []report.ShardReport {
			bad := shards[1]
			bad.Of = 3
			return []report.ShardReport{shards[0], bad}
		}, "partition"},
		{"foreign sweep key", func() []report.ShardReport {
			bad := shards[1]
			bad.SweepKey = "sweep-0000"
			return []report.ShardReport{shards[0], bad}
		}, "different sweep"},
		{"shard index out of range", func() []report.ShardReport {
			bad := shards[1]
			bad.Shard = 7
			return []report.ShardReport{shards[0], bad}
		}, "out of range"},
		{"edited cell latency", func() []report.ShardReport {
			bad := withKernels(shards[1])
			bad.Kernels[0].Cells[1].Meas.LatencyS *= 2
			return []report.ShardReport{shards[0], bad}
		}, "digest mismatch"},
		{"version 1 bundle", func() []report.ShardReport {
			bad := shards[1]
			bad.Version = 1
			return []report.ShardReport{shards[0], bad}
		}, "version 1"},
		{"version 2 bundle", func() []report.ShardReport {
			bad := shards[1]
			bad.Version = 2
			return []report.ShardReport{shards[0], bad}
		}, "version 2"},
		{"cell names a board missing from its table", func() []report.ShardReport {
			bad := shards[1]
			bad.Boards = bad.Boards[1:]
			report.ResealShard(&bad)
			return []report.ShardReport{shards[0], bad}
		}, "missing from its board table"},
		{"board listed twice in its table", func() []report.ShardReport {
			bad := shards[1]
			bad.Boards = append([]report.ShardBoard{bad.Boards[0]}, bad.Boards...)
			report.ResealShard(&bad)
			return []report.ShardReport{shards[0], bad}
		}, "appears twice in its board table"},
		{"kernel count mismatch", func() []report.ShardReport {
			bad := shards[1]
			bad.TotalKernels = 3
			report.ResealShard(&bad)
			return []report.ShardReport{shards[0], bad}
		}, "declares 3 kernels"},
		{"kernel owned twice", func() []report.ShardReport {
			bad := withKernels(shards[1])
			bad.Kernels[0].Index = 0
			report.ResealShard(&bad)
			return []report.ShardReport{shards[0], bad}
		}, "owned by two shards"},
		{"kernel index out of range", func() []report.ShardReport {
			bad := withKernels(shards[1])
			bad.Kernels[0].Index = 2
			report.ResealShard(&bad)
			return []report.ShardReport{shards[0], bad}
		}, "index 2 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mergeEncoded(tc.mutate())
			if err == nil {
				t.Fatal("merge accepted a malformed partition")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// mergeEncoded writes each bundle, reads it back and merges the set,
// returning the first error.
func mergeEncoded(set []report.ShardReport) error {
	var decoded []report.ShardReport
	for _, sr := range set {
		var buf bytes.Buffer
		if err := report.WriteShardReport(&buf, sr); err != nil {
			return err
		}
		d, err := report.ReadShardReport(&buf)
		if err != nil {
			return err
		}
		decoded = append(decoded, d)
	}
	_, err := report.MergeShards(decoded)
	return err
}

// A shard slot outside 1..N is rejected before any kernel runs.
func TestShardSlotValidated(t *testing.T) {
	specs := cacheTestSpecs(t)
	for _, slot := range [][2]int{{0, 2}, {3, 2}, {-1, 2}, {1, 0}} {
		before := obs.Counters()[obs.CounterHarnessHostReps]
		_, err := report.RunShard(specs, mcu.TableIVSet(), slot[0], slot[1], core.SweepOptions{})
		if err == nil {
			t.Fatalf("shard %d/%d accepted", slot[0], slot[1])
		}
		if d := obs.Counters()[obs.CounterHarnessHostReps] - before; d != 0 {
			t.Fatalf("shard %d/%d executed %d host reps before failing", slot[0], slot[1], d)
		}
	}
}

// hostileCount returns the 2-way shard pair with both bundles declaring
// total kernels, resealed so the digests hold, encoded as the bundles
// `entobench merge` reads.
func hostileCount(t testing.TB, shards []report.ShardReport, total int) [][]byte {
	t.Helper()
	var out [][]byte
	for _, sr := range shards {
		sr.TotalKernels = total
		report.ResealShard(&sr)
		var buf bytes.Buffer
		if err := report.WriteShardReport(&buf, sr); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// A set whose declared kernel count disagrees with the kernels it owns
// — negative, which would panic the records allocation, or huge, which
// would allocate without bound — is a merge error.
func TestMergeShardsRejectsHostileKernelCount(t *testing.T) {
	shards := runShards(t, cacheTestSpecs(t), []mcu.Arch{mcu.M4}, 2)
	for _, total := range []int{-1, 1 << 40} {
		var set []report.ShardReport
		for _, data := range hostileCount(t, shards, total) {
			sr, err := report.ReadShardReport(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			set = append(set, sr)
		}
		_, err := report.MergeShards(set)
		if err == nil || !strings.Contains(err.Error(), "kernels of") {
			t.Fatalf("total_kernels %d: merge error = %v", total, err)
		}
	}
}

// FuzzMergeShards feeds arbitrary bytes, as two bundles, through
// ReadShardReport and MergeShards. The merge must never panic, and any
// set it accepts must render exactly the unsharded sweep's bytes: the
// digest rejects a bundle whose contents differ from what its shard
// wrote.
func FuzzMergeShards(f *testing.F) {
	specs, archs := cacheTestSpecs(f), []mcu.Arch{mcu.M4}
	golden := sweepJSON(f, specs, archs, core.SweepOptions{Workers: 1})
	shards := runShards(f, specs, archs, 2)
	var seed [2][]byte
	for i, sr := range shards {
		var buf bytes.Buffer
		if err := report.WriteShardReport(&buf, sr); err != nil {
			f.Fatal(err)
		}
		seed[i] = buf.Bytes()
	}
	f.Add(seed[0], seed[1])
	f.Add(seed[1], seed[0])
	hostile := hostileCount(f, shards, -1)
	f.Add(hostile[0], hostile[1])
	f.Add(hostile[0], seed[1])
	// A resealed bundle whose board table lost the board its cells name.
	noBoards := shards[1]
	noBoards.Boards = nil
	report.ResealShard(&noBoards)
	var buf bytes.Buffer
	if err := report.WriteShardReport(&buf, noBoards); err != nil {
		f.Fatal(err)
	}
	f.Add(seed[0], buf.Bytes())

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var set []report.ShardReport
		for _, data := range [][]byte{a, b} {
			sr, err := report.ReadShardReport(bytes.NewReader(data))
			if err != nil {
				return
			}
			set = append(set, sr)
		}
		c, err := report.MergeShards(set)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted set does not render: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatal("an accepted shard set rendered bytes other than the unsharded sweep's")
		}
	})
}
