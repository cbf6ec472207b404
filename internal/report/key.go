package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// Content digests, at two granularities. A characterization is fully
// determined by the kernel set, the board cost models, and the harness
// configuration (which carries the cache flag for single runs; the
// sweep itself measures both cache settings per cell). SweepKey digests
// exactly those inputs for a whole query, so two queries share an
// in-memory cache entry if and only if they would produce
// byte-identical v1 JSON exports. CellKey and StaticCellKey apply the
// same digest scheme to one cell — one (kernel, board, cache setting)
// measurement, or one kernel's static-proxy run — and key the on-disk
// persistent store (internal/cellstore), so overlapping sweeps share
// every cell they have in common.
//
// Kernel identity is by name plus descriptor metadata: the suite
// registry rejects duplicate names, so within one process a name plus
// its (stage, category, dataset, precision, FLOPs, SRAM gate) tuple
// pins one Factory. Across processes sharing a -cachedir the same
// holds by convention — a user who changes a registered kernel's
// implementation without renaming it must point at a fresh cache
// directory (or delete the old one), exactly as with any
// content-by-descriptor build cache. Board identity is the full
// serialized Arch — name, clock, FPU, SRAM, cache, every ModelParams
// field, and the provenance Source (Source appears in the export's
// boards block, so two otherwise-identical boards with different
// provenance must not share bytes).

// cellSchemaVersion salts the per-cell keys with the payload schema
// generation. Bumping it (alongside cellstore.Version) orphans every
// old on-disk record into a clean miss when the cached result's
// meaning changes in a way the inputs do not capture.
const cellSchemaVersion = 1

// appendKernel appends one kernel's identity line — the bytes of
// fmt's "kernel|%s|%s|%s|%s|%d|%d|%v|%d\n" over the descriptor, built
// without fmt because every cell key pays for it.
func appendKernel(b []byte, s core.Spec) []byte {
	b = append(b, "kernel|"...)
	for _, f := range [...]string{s.Name, string(s.Stage), s.Category, s.Dataset} {
		b = append(append(b, f...), '|')
	}
	b = append(strconv.AppendInt(b, int64(s.Prec), 10), '|')
	b = append(strconv.AppendInt(b, int64(s.FLOPs), 10), '|')
	b = append(strconv.AppendBool(b, s.M7Only), '|')
	return append(strconv.AppendInt(b, int64(s.MinSRAMKB), 10), '\n')
}

// appendBoard appends one board's identity line, formatted afresh.
// Keys go through boardLine, which memoizes it.
func appendBoard(b []byte, a mcu.Arch) []byte {
	return fmt.Appendf(b, "board|%s|%s|%s|%g|%d|%d|%v|%s|%+v\n",
		a.Name, a.Board, a.ISA, a.ClockHz, a.FPU, a.SRAMKB, a.HasCache, a.Source, a.Model)
}

// appendHarness appends the harness configuration line.
func appendHarness(b []byte, cfg harness.Config) []byte {
	return fmt.Appendf(b, "harness|%+v\n", cfg)
}

// appendBackend appends the measurement-backend salt line — only when
// there is one. The classic simulated path contributes nothing, so
// every key minted before the backend seam existed (and every warm
// cache built from them) stays byte-identical.
func appendBackend(b []byte, backend string) []byte {
	if backend == "" {
		return b
	}
	return fmt.Appendf(b, "backend|%s\n", backend)
}

// boardLineCap bounds the board-line memo. A sweep touches a handful
// of boards, but a long-running entobenchd sees every board its
// clients send, so past the cap the memo starts over instead of
// growing without bound.
const boardLineCap = 256

// boardLines memoizes each board's identity line. Formatting the full
// model with fmt dominated CellKey, which runs once per cell; the
// line depends on nothing but the Arch value, and Arch is comparable,
// so the value itself is the memo key.
var boardLines = struct {
	sync.Mutex
	m map[mcu.Arch]string
}{m: make(map[mcu.Arch]string)}

// boardLine returns a's identity line, formatting it at most once
// while it stays memoized.
func boardLine(a mcu.Arch) string {
	if !exactMemoKey(a) {
		return string(appendBoard(nil, a))
	}
	boardLines.Lock()
	defer boardLines.Unlock()
	line, ok := boardLines.m[a]
	if !ok {
		if len(boardLines.m) >= boardLineCap {
			clear(boardLines.m)
		}
		line = string(appendBoard(nil, a))
		boardLines.m[a] = line
	}
	return line
}

// exactMemoKey reports whether map equality on a matches equality of
// its identity line. It does not for a NaN (equal to nothing, so it
// would only churn the memo) or a negative zero (== +0, but %g prints
// "-0") in any float the line prints; such boards bypass the memo.
func exactMemoKey(a mcu.Arch) bool {
	m := a.Model
	for _, f := range [...]float64{
		a.ClockHz,
		m.CPIF32, m.CPIF64, m.CPII, m.CPIB, m.MemOn, m.MemOff,
		m.BranchOffPenalty, m.IPC, m.SoftF32, m.SoftF64,
		m.BasePowerOnW, m.BasePowerOffW, m.DynFOnW, m.DynMOnW, m.DynFOffW, m.DynMOffW,
		m.StaticF, m.StaticI, m.StaticM, m.StaticB,
	} {
		if f != f || f == 0 && math.Signbit(f) {
			return false
		}
	}
	return true
}

// cellHead appends the fixed head of a cell digest: the schema line,
// the backend salt, and the per-cell harness line.
func cellHead(b []byte, cacheOn bool, backend string) []byte {
	cfg := harness.DefaultConfig()
	cfg.CacheOn = cacheOn
	b = fmt.Appendf(b, "cellschema|%d\n", cellSchemaVersion)
	return appendHarness(appendBackend(b, backend), cfg)
}

// simCellHead is cellHead for the empty (simulator) backend, rendered
// once per cache setting.
var simCellHead = map[bool][]byte{false: cellHead(nil, false, ""), true: cellHead(nil, true, "")}

// digestKey returns prefix ("cell-" or "sweep-") plus the hex SHA-256
// of content.
func digestKey(prefix string, content []byte) string {
	sum := sha256.Sum256(content)
	var out [len("sweep-") + 2*sha256.Size]byte
	n := copy(out[:], prefix)
	hex.Encode(out[n:], sum[:])
	return string(out[:n+2*sha256.Size])
}

// SweepKey returns the cache key of a characterization query:
// "sweep-" plus the hex SHA-256 of the query's content digest. backend
// is the measurement backend's salt (harness.BackendSalt) — empty for
// classic sweeps.
func SweepKey(specs []core.Spec, archs []mcu.Arch, cfg harness.Config, backend string) string {
	b := appendHarness(appendBackend(nil, backend), cfg)
	for _, s := range specs {
		b = appendKernel(b, s)
	}
	for _, a := range archs {
		b = append(b, boardLine(a)...)
	}
	return digestKey("sweep-", b)
}

// CellKey returns the persistent-store key of one (kernel, board,
// cache setting) measurement cell: "cell-" plus the hex SHA-256 of the
// cell's content digest. The digest covers the kernel descriptor, the
// full board model, and the per-cell harness configuration (the sweep
// default with CacheOn set to the cell's setting), plus the payload
// schema version — the same identity the sweep-level key uses, applied
// to one cell. backend is the measurement backend's salt
// (harness.BackendSalt): empty for simulator cells, which therefore
// keep their pre-seam keys; non-empty for externally measured cells,
// so modeled and measured results never collide in the store.
func CellKey(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) string {
	var buf [1024]byte
	b := buf[:0]
	if backend == "" {
		b = append(b, simCellHead[cacheOn]...)
	} else {
		b = cellHead(b, cacheOn, backend)
	}
	b = appendKernel(b, spec)
	b = append(b, boardLine(arch)...)
	return digestKey("cell-", b)
}

// StaticCellKey returns the persistent-store key of one kernel's
// static-proxy run. The static job is board-independent (it profiles
// the reduced-input solve and models flash from the counts), so the
// digest covers only the kernel descriptor and the schema version.
func StaticCellKey(spec core.Spec) string {
	b := fmt.Appendf(nil, "cellschema|%d\nstatic\n", cellSchemaVersion)
	return digestKey("cell-", appendKernel(b, spec))
}
