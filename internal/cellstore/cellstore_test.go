package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"model":{"cycles":42}}`)
	if err := s.Put("cell-abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("cell-abc123")
	if !ok {
		t.Fatal("stored record missed")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round trip: got %q, want %q", got, payload)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if _, ok := s.Get("cell-never-stored"); ok {
		t.Fatal("absent key hit")
	}
}

// corruptions is every way a record can rot on disk — truncation, bit
// flips in the payload, a header from a different version or format, a
// record filed under the wrong key, a version-1 JSON envelope left by
// an older binary. Each mutates the record Put wrote for
// corruptPayload under corruptKey.
var corruptions = []struct {
	name    string
	mutate  func(t testing.TB, path string)
	discard bool // expect a counted discard (vs a plain miss)
}{
	{"truncated", func(t testing.TB, path string) {
		data := readRecord(t, path)
		writeRecord(t, path, data[:len(data)-len(corruptPayload)/2])
	}, true},
	{"bit-flipped payload", func(t testing.TB, path string) {
		// Flip a digit inside the payload; the header stays intact but
		// the checksum no longer matches.
		data := readRecord(t, path)
		i := bytes.LastIndexByte(data, '4')
		if i < bytes.IndexByte(data, '\n') {
			t.Fatal("no digit to flip in the payload")
		}
		data[i] = '7'
		writeRecord(t, path, data)
	}, true},
	{"wrong version", func(t testing.TB, path string) {
		rewriteHeader(t, path, func(f []string) { f[1] = strconv.Itoa(Version + 1) })
	}, true},
	{"wrong format", func(t testing.TB, path string) {
		rewriteHeader(t, path, func(f []string) { f[0] = "somebody.else" })
	}, true},
	{"key mismatch", func(t testing.TB, path string) {
		// Same length as corruptKey, so only the key bytes differ.
		rewriteHeader(t, path, func(f []string) { f[2] = "cell-feedbeef" })
	}, true},
	{"not json at all", func(t testing.TB, path string) {
		writeRecord(t, path, []byte("not json"))
	}, true},
	{"v1 JSON record from an older binary", func(t testing.TB, path string) {
		// The version-1 envelope, field for field, as older binaries
		// wrote it.
		sum := sha256.Sum256(corruptPayload)
		v1, err := json.Marshal(struct {
			Format  string          `json:"format"`
			Version int             `json:"version"`
			Key     string          `json:"key"`
			SHA256  string          `json:"sha256"`
			Payload json.RawMessage `json:"payload"`
		}{Format, 1, corruptKey, hex.EncodeToString(sum[:]), corruptPayload})
		if err != nil {
			t.Fatal(err)
		}
		writeRecord(t, path, v1)
	}, true},
}

const corruptKey = "cell-deadbeef"

var corruptPayload = []byte(`{"model":{"cycles":42}}`)

// Every corruption must read as a miss, bump
// cellstore.corrupt_discarded, and remove the file so the slot heals by
// recomputation. Never an error.
func TestCorruptRecordsDiscarded(t *testing.T) {
	payload := corruptPayload
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const key = corruptKey
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.Dir(), key+".json")
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("record not at expected path: %v", err)
			}
			tc.mutate(t, path)

			before := obs.Counters()[obs.CounterCellstoreCorruptDiscarded]
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt record served as a hit")
			}
			after := obs.Counters()[obs.CounterCellstoreCorruptDiscarded]
			if tc.discard && after != before+1 {
				t.Fatalf("corrupt_discarded went %d -> %d, want +1", before, after)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt record not removed (stat err %v)", err)
			}
			// The healed slot rewrites and serves cleanly.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != string(payload) {
				t.Fatalf("healed slot: ok=%v payload=%q", ok, got)
			}
		})
	}
}

func readRecord(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeRecord(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteHeader edits the on-disk header's fields (format, version,
// key, digest). The payload and its checksum are left alone, so only
// the edited field trips verification.
func rewriteHeader(t testing.TB, path string, edit func(fields []string)) {
	t.Helper()
	data := readRecord(t, path)
	head, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		t.Fatalf("record has no header line: %q", data)
	}
	fields := strings.Split(string(head), " ")
	if len(fields) != 4 {
		t.Fatalf("header %q has %d fields, want 4", head, len(fields))
	}
	edit(fields)
	writeRecord(t, path, append([]byte(strings.Join(fields, " ")+"\n"), payload...))
}

// FuzzStoreGet writes arbitrary bytes as a record and reads it back.
// Get must never panic; it may hit only when the header names this key
// and the digest matches the returned bytes, which must be everything
// after the header line; and any miss must remove the file.
func FuzzStoreGet(f *testing.F) {
	dir := f.TempDir()
	seed, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, corruptKey+".json")
	for i := -1; i < len(corruptions); i++ {
		if err := seed.Put(corruptKey, corruptPayload); err != nil {
			f.Fatal(err)
		}
		if i >= 0 {
			corruptions[i].mutate(f, path)
		}
		f.Add(readRecord(f, path)) // the intact record, then each corruption
	}
	f.Add([]byte{})
	f.Add([]byte("\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(corruptKey)
		writeRecord(t, path, data)
		got, ok := s.Get(corruptKey)
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("missed record not removed (stat err %v)", err)
			}
			return
		}
		sum := sha256.Sum256(got)
		want := fmt.Sprintf("%s %d %s %x\n%s", Format, Version, corruptKey, sum, got)
		if string(data) != want {
			t.Fatalf("hit on record %q, whose header does not match key and digest of %q", data, got)
		}
	})
}

// Hostile keys must not escape the store directory.
func TestKeySanitized(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("../escape", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape.json")); !os.IsNotExist(err) {
		t.Fatal("key escaped the store directory")
	}
	if _, ok := s.Get("../escape"); !ok {
		t.Fatal("sanitized key did not round-trip")
	}
}

// Concurrent writers and readers over one directory — the
// multi-process -cachedir sharing contract, exercised in-process where
// the race detector can see it. Same-key writers produce identical
// bytes, so every read must see either a miss or the one true payload.
func TestConcurrentSharedStore(t *testing.T) {
	dir := t.TempDir()
	const keys = 8
	payloadFor := func(k int) []byte {
		return []byte(fmt.Sprintf(`{"cell":%d}`, k))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine opens its own Store handle, like a separate
			// process sharing the directory would.
			s, err := Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				k := i % keys
				key := fmt.Sprintf("cell-%d", k)
				if err := s.Put(key, payloadFor(k)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && string(got) != string(payloadFor(k)) {
					t.Errorf("torn read: key %s payload %q", key, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
}

// quotaStore opens a store with a byte quota and instant backoff so
// retry tests don't sleep for real.
func quotaStore(t *testing.T, quota int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetQuota(quota)
	s.backoffSleep = func(time.Duration) {}
	return s
}

func TestQuotaGCEvictsOldestFirst(t *testing.T) {
	obs.ResetCounters()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Size one record, then quota for ~4 of them.
	payload := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", 256)))
	if err := s.Put("cell-size-probe", payload); err != nil {
		t.Fatal(err)
	}
	var recordSize int64
	entries, _ := os.ReadDir(s.Dir())
	for _, e := range entries {
		info, _ := e.Info()
		recordSize = info.Size()
	}
	os.Remove(filepath.Join(s.Dir(), "cell-size-probe.json"))
	s.SetQuota(4*recordSize + recordSize/2)

	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("cell-gc-%d", i)
		if err := s.Put(key, payload); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		// mtime granularity can be coarse; force distinct recency.
		p := filepath.Join(s.Dir(), key+".json")
		mt := time.Now().Add(time.Duration(i-8) * time.Second)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// One more put triggers accounting past the quota.
	if err := s.Put("cell-gc-last", payload); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n > 5 {
		t.Fatalf("store holds %d records, want <= 5 after GC under quota", n)
	}
	if got := obs.Counters()[obs.CounterCellstoreGCEvicted]; got == 0 {
		t.Fatal("cellstore.gc_evicted did not count")
	}
	// The newest record must have survived; the oldest must be gone.
	if _, ok := s.Get("cell-gc-last"); !ok {
		t.Fatal("newest record evicted — GC is not LRU")
	}
	if _, ok := s.Get("cell-gc-0"); ok {
		t.Fatal("oldest record survived a GC that evicted others")
	}
}

func TestTransientWriteErrorRetriesAndRecovers(t *testing.T) {
	s := quotaStore(t, 0)
	fails := 0
	s.SetFaultHook(func(op, key string) error {
		if op == "put" && fails < 2 {
			fails++
			return fmt.Errorf("injected transient write error %d", fails)
		}
		return nil
	})
	if err := s.Put("cell-retry", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("put failed despite retries: %v", err)
	}
	if fails != 2 {
		t.Fatalf("fault hook fired %d times, want 2 (then success)", fails)
	}
	if degraded, _ := s.Degraded(); degraded {
		t.Fatal("transient error degraded the store")
	}
	if _, ok := s.Get("cell-retry"); !ok {
		t.Fatal("retried put did not land")
	}
}

func TestDiskFullDegradesImmediatelyAndProbesBack(t *testing.T) {
	obs.ResetCounters()
	s := quotaStore(t, 0)
	s.SetProbeInterval(0) // probe on every put
	full := true
	s.SetFaultHook(func(op, key string) error {
		if op == "put" && full {
			return fmt.Errorf("injected: %w", syscall.ENOSPC)
		}
		return nil
	})
	if err := s.Put("cell-full", []byte(`{"v":1}`)); err == nil {
		t.Fatal("put succeeded against a full disk")
	}
	degraded, reason := s.Degraded()
	if !degraded {
		t.Fatal("ENOSPC did not degrade the store")
	}
	if reason == "" {
		t.Fatal("degraded store carries no reason")
	}
	if got := obs.Counters()[obs.CounterCellstoreDegraded]; got != 1 {
		t.Fatalf("cellstore.degraded = %d, want 1", got)
	}
	// Degraded stores still serve warm cells: write one before
	// degradation would be cleaner, but Get has no write path — prove
	// reads work by healing the disk and probing back first.
	full = false
	if err := s.Put("cell-healed", []byte(`{"v":2}`)); err != nil {
		t.Fatalf("probe put after heal: %v", err)
	}
	if degraded, _ := s.Degraded(); degraded {
		t.Fatal("successful probe did not exit degraded mode")
	}
	if _, ok := s.Get("cell-healed"); !ok {
		t.Fatal("post-recovery put unreadable")
	}
	// Re-entering degraded mode counts again.
	full = true
	if err := s.Put("cell-full-2", []byte(`{"v":3}`)); err == nil {
		t.Fatal("put succeeded against a re-filled disk")
	}
	if got := obs.Counters()[obs.CounterCellstoreDegraded]; got != 2 {
		t.Fatalf("cellstore.degraded = %d after second transition, want 2", got)
	}
}

func TestDegradedGetStillServesWarmCells(t *testing.T) {
	s := quotaStore(t, 0)
	s.SetProbeInterval(time.Hour) // no probe during the test
	if err := s.Put("cell-warm", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(func(op, key string) error {
		if op == "put" {
			return fmt.Errorf("injected: %w", syscall.ENOSPC)
		}
		return nil
	})
	if err := s.Put("cell-cold", []byte(`{"v":2}`)); err == nil {
		t.Fatal("put succeeded against a full disk")
	}
	if _, ok := s.Get("cell-warm"); !ok {
		t.Fatal("degraded store lost a warm cell")
	}
	// Cheap refusal path: no probe due, so Put returns ErrDegraded
	// without touching the hook or the disk.
	if err := s.Put("cell-cold", []byte(`{"v":2}`)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded put = %v, want ErrDegraded", err)
	}
}

func TestRepeatedExhaustedRetriesDegrade(t *testing.T) {
	s := quotaStore(t, 0)
	s.SetFaultHook(func(op, key string) error {
		if op == "put" {
			return fmt.Errorf("injected persistent (non-ENOSPC) failure")
		}
		return nil
	})
	for i := 0; i < degradeAfterFailures; i++ {
		if degraded, _ := s.Degraded(); degraded {
			t.Fatalf("degraded after only %d exhausted puts", i)
		}
		if err := s.Put(fmt.Sprintf("cell-fail-%d", i), []byte(`{}`)); err == nil {
			t.Fatal("injected failure did not surface")
		}
	}
	if degraded, _ := s.Degraded(); !degraded {
		t.Fatalf("%d consecutive exhausted puts did not degrade the store", degradeAfterFailures)
	}
}

// Put stores the caller's bytes verbatim: payloads that are not compact
// JSON, carry characters a JSON encoder would escape, or are not JSON
// at all must come back byte for byte and verify against their digest.
func TestPutGetRoundTripsOpaquePayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range [][]byte{
		[]byte(`{"a": 1}`),
		[]byte("{\n  \"e\": \"x > y && a < b\"\n}\n"),
		[]byte("not json\x00\xff\nsecond line"),
		{},
		// Records past the reader's first buffer, one of them past
		// several doublings of it.
		bytes.Repeat([]byte{0xa5}, 400),
		bytes.Repeat([]byte("0123456789abcdef"), 300),
	} {
		key := fmt.Sprintf("cell-opaque-%d", i)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok {
			t.Fatalf("payload %q: stored record missed", payload)
		}
		if string(got) != string(payload) {
			t.Fatalf("payload round trip: got %q, want %q", got, payload)
		}
	}
}

// BenchmarkStoreGet times one warm record read: file read, header
// check, payload SHA-256. The 421-byte payload is the size of a
// measured cell's JSON payload under record version 2.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"model":{"cycles":` + strings.Repeat("1234567890", 40) + `}}`)
	const key = "cell-5a01c053034f4db809fdd6b9b227417f0f54d160456061a762d6843bdb32bd1f"
	if err := s.Put(key, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("warm record missed")
		}
	}
}

// A warm read on a quota'd store never waits for the size accounting
// lock, which a Put holds for a whole GC scan: Get must return while
// s.mu is held.
func TestGetDoesNotWaitBehindQuotaGC(t *testing.T) {
	s := quotaStore(t, 1<<20)
	payload := []byte("cell payload")
	if err := s.Put("cell-warm", payload); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan bool, 1)
	go func() {
		got, ok := s.Get("cell-warm")
		done <- ok && bytes.Equal(got, payload)
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Get missed the stored record")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked while s.mu was held")
	}
}

// Len, the size scan and the GC share one record test (isRecord): a
// .json file that is not a dot-prefixed temporary or a directory.
func TestLenCountsOnlyRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cell-a.json", ".put-123", ".put-1.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (only cell-a.json)", n)
	}
}
