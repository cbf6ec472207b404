// Package cellstore is the on-disk content-addressed store behind the
// persistent per-cell sweep cache (-cachedir). It is a flat directory
// of records, one file per content key: the key digests everything
// that determines a cell's bytes (kernel spec, board model, harness
// config — see report.CellKey), so a record is immutable once written
// and lookups never need invalidation, only presence checks.
//
// A record is one text header line followed by the caller's payload
// bytes, stored verbatim:
//
//	entobench.cell 3 <key> <sha256-hex of payload>\n
//	<payload>
//
// so a read checks the small header and hashes the payload, and the
// caller decodes the payload exactly once. The store treats the
// payload as opaque; the sweep cache stores report's fixed-order
// binary cell. On unix a record is read with raw open/read/close calls
// (four for a small record) instead of os.ReadFile. Files keep the .json
// suffix of the version-1 JSON envelope, so records written by older
// binaries are still seen by the quota scans and the collector, and
// read once as misses.
//
// Durability contract:
//
//   - Writes are atomic: each Put lands in a private temp file in the
//     store directory and is published with os.Rename, so a concurrent
//     reader — or another process sharing the directory — sees either
//     no file or a complete record, never a torn one.
//   - Reads are verified: every record's header carries a format tag, a
//     version, its own key, and the SHA-256 of its payload. A record
//     that fails any check (truncation, bit flips, a foreign or older
//     format) is discarded — best-effort unlinked and counted on
//     cellstore.corrupt_discarded — and reported as a miss, so
//     corruption always heals into a recompute, never an error.
//   - Concurrent Puts of the same key are benign: both writers produce
//     identical bytes (the key is a content digest), and rename makes
//     whichever lands last win without readers ever seeing a mix.
//
// Resource-pressure contract (docs/robustness.md):
//
//   - A byte-size quota (SetQuota) bounds the directory: when a Put
//     pushes the store past the quota, the least-recently-used records
//     (Get refreshes recency) are garbage-collected down to 90% of the
//     bound and counted on cellstore.gc_evicted. Evicted cells simply
//     recompute on their next miss.
//   - Transient write errors retry a bounded number of times with
//     jittered backoff before giving up, so one flaky fsync never
//     costs a cell its persistence.
//   - A persistent write failure — disk full (ENOSPC) immediately,
//     or repeated exhausted retries — flips the store into read-only
//     degraded mode: Puts become cheap refusals, Gets keep serving
//     every warm cell, and the transition is counted on
//     cellstore.degraded and surfaced through Degraded() (which
//     entobenchd reports on /healthz). While degraded the store
//     periodically re-probes the disk on Put and exits degraded mode
//     on the first success, so clearing the disk heals the daemon
//     without a restart.
package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Format is the record header's format tag.
const Format = "entobench.cell"

// Version is the record format version. Bump it whenever the record
// layout, the payload schema or the measurement semantics change in a
// way the key does not capture; old records then read as misses and
// recompute. Version 1 was a JSON envelope around the payload;
// version 2 put a JSON payload under the header line; version 3 holds
// the binary cell payload under the same header.
const Version = 3

// headerPrefix opens every current record's header line.
var headerPrefix = Format + " " + strconv.Itoa(Version) + " "

// ctrCorruptDiscarded counts records discarded on read for failing an
// integrity check (docs/observability.md).
var ctrCorruptDiscarded = obs.NewCounter(obs.CounterCellstoreCorruptDiscarded)

// ctrGCEvicted counts records the quota's LRU garbage collector
// removed; ctrDegraded counts transitions into read-only degraded mode
// (docs/observability.md).
var (
	ctrGCEvicted = obs.NewCounter(obs.CounterCellstoreGCEvicted)
	ctrDegraded  = obs.NewCounter(obs.CounterCellstoreDegraded)
)

// Write-retry policy: a transient Put error (anything but disk-full)
// retries up to putRetries times with jittered exponential backoff
// starting at putBackoffBase. Disk-full never retries — a full disk
// does not heal in milliseconds — and flips the store degraded at
// once.
const (
	putRetries     = 3
	putBackoffBase = 2 * time.Millisecond
)

// degradeAfterFailures is how many consecutive retry-exhausted Puts
// (of any error kind) it takes to conclude the failure is persistent
// and enter degraded mode without an explicit disk-full signal.
const degradeAfterFailures = 3

// DefaultProbeInterval is how often a degraded store re-probes the
// disk: at most one Put per interval attempts a real write, and the
// first success exits degraded mode.
const DefaultProbeInterval = 5 * time.Second

// Store is one cache directory. It is safe for concurrent use by any
// number of goroutines and processes.
type Store struct {
	dir string
	// root is the cleaned directory with a trailing separator: the
	// prefix of every record path.
	root string

	// quota, when > 0, bounds the directory's total record bytes; Get
	// reads it without waiting behind a GC that holds mu. Sizing state
	// is maintained approximately under mu and trued up by every scan.
	quota     atomic.Int64
	mu        sync.Mutex
	size      int64
	sizeKnown bool

	// Degraded-mode state. degraded flips on a persistent write
	// failure; reason carries the rendered cause for /healthz;
	// consecFails counts retry-exhausted Puts since the last success;
	// lastProbe rate-limits recovery probes to one per probeEvery.
	degraded    atomic.Bool
	reason      atomic.Value // string
	consecFails atomic.Int64
	lastProbe   atomic.Int64 // unix nanos
	probeEvery  atomic.Int64 // nanos; DefaultProbeInterval unless set

	// faultHook, when set, is consulted before every disk touch — the
	// chaos harness's injection point (internal/chaos). A non-nil error
	// from the hook is treated exactly like the real syscall failing.
	faultHook atomic.Value // func(op, key string) error

	// backoffSleep is the retry delay function; tests shorten it.
	backoffSleep func(d time.Duration)
}

// Open returns a Store rooted at dir, creating the directory (and
// parents) if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cellstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellstore: open %s: %w", dir, err)
	}
	root := filepath.Clean(dir)
	if !os.IsPathSeparator(root[len(root)-1]) {
		root += string(filepath.Separator)
	}
	s := &Store{dir: dir, root: root, backoffSleep: time.Sleep}
	s.probeEvery.Store(int64(DefaultProbeInterval))
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetQuota bounds the store's total record bytes; n <= 0 removes the
// bound. When a Put pushes the directory past the quota the
// least-recently-used records are collected down to 90% of it.
func (s *Store) SetQuota(n int64) {
	s.mu.Lock()
	s.quota.Store(n)
	s.sizeKnown = false // re-scan on the next accounted Put
	s.mu.Unlock()
}

// Quota returns the configured byte bound (0 = unbounded).
func (s *Store) Quota() int64 { return s.quota.Load() }

// SetProbeInterval sets how often a degraded store re-probes the disk
// on Put; d <= 0 probes on every Put (test and chaos-harness use).
func (s *Store) SetProbeInterval(d time.Duration) { s.probeEvery.Store(int64(d)) }

// SetFaultHook installs (or, with nil, removes) a fault-injection hook
// consulted before every disk operation with the operation name
// ("put", "get") and the record key. A non-nil return is treated as
// the real operation failing — the chaos harness's seam
// (internal/chaos); production code never sets it.
func (s *Store) SetFaultHook(h func(op, key string) error) {
	s.faultHook.Store(&h)
}

// hookErr consults the fault hook, if any.
func (s *Store) hookErr(op, key string) error {
	if p, ok := s.faultHook.Load().(*func(op, key string) error); ok && *p != nil {
		return (*p)(op, key)
	}
	return nil
}

// Degraded reports whether the store is in read-only degraded mode,
// and why. A degraded store keeps serving Gets and refuses Puts
// cheaply until a recovery probe succeeds.
func (s *Store) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	reason, _ := s.reason.Load().(string)
	return true, reason
}

// enterDegraded flips the store read-only (idempotently) and records
// the cause; each actual transition is counted.
func (s *Store) enterDegraded(cause error) {
	s.reason.Store(fmt.Sprintf("cell store read-only: %v", cause))
	s.lastProbe.Store(time.Now().UnixNano())
	if s.degraded.CompareAndSwap(false, true) {
		ctrDegraded.Inc()
	}
}

// exitDegraded returns the store to writable after a successful probe.
func (s *Store) exitDegraded() {
	s.degraded.Store(false)
	s.consecFails.Store(0)
}

// probeDue reports whether a degraded Put should attempt a real write;
// at most one Put per probe interval does.
func (s *Store) probeDue() bool {
	every := s.probeEvery.Load()
	if every <= 0 {
		return true
	}
	last := s.lastProbe.Load()
	now := time.Now().UnixNano()
	return now-last >= every && s.lastProbe.CompareAndSwap(last, now)
}

// isDiskFull recognizes the no-space family of write errors — the
// canonical persistent failure that degrades the store immediately.
func isDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// ErrDegraded is the sentinel a Put returns while the store is
// read-only and no probe is due.
var ErrDegraded = errors.New("cellstore: degraded (read-only)")

// path maps a content key to its file. Keys are digest-shaped
// ("cell-<hex>") and map straight to a file name; anything else would
// be a caller bug, but such a key is sanitized anyway so a hostile key
// cannot escape the directory.
func (s *Store) path(key string) string {
	for i := 0; i < len(key); i++ {
		if !safeKeyRune(rune(key[i])) {
			key = strings.Map(func(r rune) rune {
				if safeKeyRune(r) {
					return r
				}
				return '_'
			}, key)
			break
		}
	}
	return s.root + key + ".json"
}

// safeKeyRune reports whether r may appear in a record file name as is.
func safeKeyRune(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		return true
	}
	return false
}

// Get returns the payload stored under key, or ok=false on a miss. A
// present-but-invalid record — no header line, wrong format, wrong
// version, key mismatch, or checksum mismatch — is treated as a miss:
// it is counted on cellstore.corrupt_discarded and best-effort removed
// so the healed slot rewrites cleanly. The payload is a subslice of
// the bytes read, owned by the caller.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	if s.hookErr("get", key) != nil {
		return nil, false // injected read fault: a miss, never an error
	}
	p := s.path(key)
	data, err := readFile(p)
	if err != nil {
		return nil, false
	}
	payload, ok = parseRecord(data, key)
	if !ok {
		s.discard(p)
		return nil, false
	}
	if s.Quota() > 0 {
		// Refresh recency so the LRU collector evicts cold cells first.
		now := time.Now()
		_ = os.Chtimes(p, now, now)
	}
	return payload, true
}

// parseRecord checks a record's header against key and its payload
// against the header's digest, returning the payload on success.
func parseRecord(data []byte, key string) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	head, payload := data[:nl], data[nl+1:]
	hexAt := len(headerPrefix) + len(key) + 1
	if len(head) != hexAt+hex.EncodedLen(sha256.Size) ||
		string(head[:len(headerPrefix)]) != headerPrefix ||
		string(head[len(headerPrefix):hexAt-1]) != key ||
		head[hexAt-1] != ' ' {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return payload, bytes.Equal(head[hexAt:], hexSum[:])
}

// discard removes an invalid record, tolerating races with other
// healers (the file may already be gone).
func (s *Store) discard(path string) {
	ctrCorruptDiscarded.Inc()
	os.Remove(path)
}

// Put stores payload under key, atomically. Concurrent Puts of the same
// key — even from other processes — are safe; the rename is the commit
// point. Transient errors retry with jittered backoff; disk-full (or a
// run of exhausted retries) flips the store into read-only degraded
// mode, in which Puts return ErrDegraded cheaply until a periodic
// probe write succeeds again.
func (s *Store) Put(key string, payload []byte) error {
	if s.degraded.Load() && !s.probeDue() {
		return ErrDegraded
	}
	sum := sha256.Sum256(payload)
	data := make([]byte, 0, len(headerPrefix)+len(key)+2+hex.EncodedLen(len(sum))+len(payload))
	data = append(append(append(data, headerPrefix...), key...), ' ')
	data = append(hex.AppendEncode(data, sum[:]), '\n')
	data = append(data, payload...)
	var err error
	for attempt := 0; ; attempt++ {
		err = s.putOnce(key, data)
		if err == nil {
			if s.degraded.Load() {
				s.exitDegraded()
			}
			s.consecFails.Store(0)
			s.account(int64(len(data)))
			return nil
		}
		if isDiskFull(err) {
			s.enterDegraded(err)
			return fmt.Errorf("cellstore: put %s: %w", key, err)
		}
		if attempt >= putRetries {
			break
		}
		// Jittered exponential backoff: base·2^attempt plus up to 100%
		// jitter, so concurrent writers hitting one flaky disk don't
		// retry in lockstep.
		d := putBackoffBase << attempt
		s.backoffSleep(d + time.Duration(rand.Int63n(int64(d))))
	}
	if s.consecFails.Add(1) >= degradeAfterFailures {
		s.enterDegraded(err)
	}
	return fmt.Errorf("cellstore: put %s: %w", key, err)
}

// putOnce is one atomic temp-write-rename attempt.
func (s *Store) putOnce(key string, data []byte) error {
	if err := s.hookErr("put", key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// account tracks the approximate store size after a successful Put and
// triggers the LRU collector past the quota. Overwrites of an existing
// key overcount until the next GC scan trues the number up — the bound
// is operational, not exact.
func (s *Store) account(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quota.Load() <= 0 {
		return
	}
	if !s.sizeKnown {
		s.size = s.scanSizeLocked()
		s.sizeKnown = true
	} else {
		s.size += n
	}
	if s.size > s.quota.Load() {
		s.gcLocked()
	}
}

// isRecord reports whether a directory entry is a cell record: a
// .json file, not a dot-prefixed temporary of an in-flight Put.
func isRecord(e os.DirEntry) bool {
	return !e.IsDir() && strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".")
}

// scanSizeLocked sums the on-disk record bytes.
func (s *Store) scanSizeLocked() int64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if !isRecord(e) {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// gcLocked evicts least-recently-used records until the store fits in
// 90% of the quota (hysteresis, so one hot Put doesn't GC every time),
// counting each eviction. Recency is file mtime, refreshed by Get.
func (s *Store) gcLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type rec struct {
		name  string
		size  int64
		mtime time.Time
	}
	var recs []rec
	var total int64
	for _, e := range entries {
		if !isRecord(e) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime.Before(recs[j].mtime) })
	target := s.quota.Load() * 9 / 10
	for _, r := range recs {
		if total <= target {
			break
		}
		if os.Remove(filepath.Join(s.dir, r.name)) == nil {
			total -= r.size
			ctrGCEvicted.Inc()
		}
	}
	s.size = total
}

// Len counts valid-looking records currently in the store (by file
// presence only; contents are verified on Get). It exists for tests and
// ops introspection, not the hot path.
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if isRecord(e) {
			n++
		}
	}
	return n
}
