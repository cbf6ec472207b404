package report_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/report"
)

// runShards partitions the sweep N ways, round-trips every bundle
// through its wire format (exactly what `entobench merge` reads), and
// returns the decoded bundles.
func runShards(t testing.TB, specs []core.Spec, archs []mcu.Arch, n int) []report.ShardReport {
	t.Helper()
	var shards []report.ShardReport
	for i := 1; i <= n; i++ {
		sr, err := report.RunShard(specs, archs, core.SweepOptions{
			Workers: 2, ShardIndex: i, ShardCount: n,
		})
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
		sr, err := report.RunShard(specs, archs, core.SweepOptions{
			Workers: 1, ShardIndex: i, ShardCount: 2, CellCache: cache,
		})
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

// Merge validation: every malformed combination is rejected with a
// diagnosable error instead of assembling a silently wrong report.
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
		{"kernel descriptor mismatch", func() []report.ShardReport {
			// The merge renders shard 1's descriptor, so accepting this
			// would make the bytes depend on bundle order.
			bad := shards[1]
			bad.Kernels = append([]report.ShardKernel(nil), bad.Kernels...)
			bad.Kernels[1].Dataset = "other"
			return []report.ShardReport{shards[0], bad}
		}, "kernel 1 is"},
		{"shard index out of range", func() []report.ShardReport {
			bad := shards[1]
			bad.Shard = 7
			return []report.ShardReport{shards[0], bad}
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := report.MergeShards(tc.mutate())
			if err == nil {
				t.Fatal("merge accepted a malformed partition")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// A shard index outside 1..N is a sweep-options error, caught before
// any work runs.
func TestShardIndexValidated(t *testing.T) {
	specs := cacheTestSpecs(t)
	for _, idx := range []int{0, 3, -1} {
		_, err := report.RunShard(specs, mcu.TableIVSet(), core.SweepOptions{ShardIndex: idx, ShardCount: 2})
		if err == nil {
			t.Fatalf("shard %d/2 accepted", idx)
		}
	}
}

// hostileTotal returns the 2-way shard pair with kernel 0 declaring
// total cells, encoded as the bundles `entobench merge` reads.
func hostileTotal(t testing.TB, shards []report.ShardReport, total int) [][]byte {
	t.Helper()
	var out [][]byte
	for _, sr := range shards {
		sr.Kernels = append([]report.ShardKernel(nil), sr.Kernels...)
		sr.Kernels[0].TotalCells = total
		var buf bytes.Buffer
		if err := report.WriteShardReport(&buf, sr); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// A bundle whose total_cells disagrees with the cells the set owns —
// negative, which would panic the grid allocation, or huge, which would
// allocate without bound — is a merge error.
func TestMergeShardsRejectsHostileTotalCells(t *testing.T) {
	shards := runShards(t, cacheTestSpecs(t), []mcu.Arch{mcu.M4}, 2)
	for _, total := range []int{-1, 1 << 40} {
		var set []report.ShardReport
		for _, data := range hostileTotal(t, shards, total) {
			sr, err := report.ReadShardReport(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			set = append(set, sr)
		}
		_, err := report.MergeShards(set)
		if err == nil || !strings.Contains(err.Error(), "cells of its") {
			t.Fatalf("total_cells %d: merge error = %v", total, err)
		}
	}
}

// FuzzMergeShards feeds arbitrary bytes, as two bundles, through
// ReadShardReport and MergeShards. The merge must never panic; a set it
// accepts must render the same v1 bytes in either bundle order, and a
// set that decodes to the real shard pair must render exactly the
// unsharded sweep's bytes. (An accepted set with edited numbers renders
// them: a bundle carries no digest of its cells.)
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
	hostile := hostileTotal(f, shards, -1)
	f.Add(hostile[0], hostile[1])
	f.Add(hostile[0], seed[1])

	// canon re-encodes a decoded bundle, so inputs that differ only in
	// JSON spelling compare equal.
	canon := func(sr report.ShardReport) string {
		var buf bytes.Buffer
		if err := report.WriteShardReport(&buf, sr); err != nil {
			f.Fatal(err)
		}
		return buf.String()
	}
	render := func(set []report.ShardReport) ([]byte, bool) {
		c, err := report.MergeShards(set)
		if err != nil {
			return nil, false
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			return nil, false
		}
		return buf.Bytes(), true
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var set []report.ShardReport
		for _, data := range [][]byte{a, b} {
			sr, err := report.ReadShardReport(bytes.NewReader(data))
			if err != nil {
				return
			}
			set = append(set, sr)
		}
		out, ok := render(set)
		if !ok {
			return
		}
		if rev, _ := render([]report.ShardReport{set[1], set[0]}); !bytes.Equal(out, rev) {
			t.Fatal("accepted set renders differently in reverse bundle order")
		}
		ca, cb := canon(set[0]), canon(set[1])
		real0, real1 := string(seed[0]), string(seed[1])
		if (ca == real0 && cb == real1 || ca == real1 && cb == real0) && !bytes.Equal(out, golden) {
			t.Fatal("the real shard pair merged to bytes other than the unsharded sweep's")
		}
	})
}
