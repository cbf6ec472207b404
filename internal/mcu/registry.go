package mcu

// Board registry: the data-driven path every Arch in the process goes
// through. The four reference cores load from the embedded boards.json;
// user boards enter via Register (programmatic), Load (an io.Reader of
// board-file JSON), or LoadFile (entobench sweep -boards). Every entry
// is validated before admission and name collisions are rejected, so a
// successfully registered board is always safe to characterize on.
//
// Named arch sets ("tableiv", "cs2", "all", plus any set a board file
// declares) are resolved by query — ResolveArchs — instead of by
// hardcoded functions, which is what lets the CLI accept
// -archs tableiv,mycore without code changes. DESIGN.md §11 documents
// the board-file schema.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// BoardSchema and BoardVersion identify the board-file format. Version
// bumps only on breaking changes; adding optional fields does not bump.
const (
	BoardSchema  = "entobench.boards"
	BoardVersion = 1
)

// SourceBuiltin marks boards that came from the embedded reference
// spec; programmatically registered boards default to
// SourceRegistered. File loads use the file path as the source.
const (
	SourceBuiltin    = "builtin"
	SourceRegistered = "registered"
)

// BoardFile is the on-disk board definition format: a schema envelope,
// the board list, and optionally named arch sets over those (and
// previously registered) boards.
type BoardFile struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Boards  []Arch `json:"boards"`
	// Sets maps a set name to the board names it contains; names may
	// reference boards from this file or any already registered.
	Sets map[string][]string `json:"sets,omitempty"`
}

//go:embed boards.json
var builtinSpec []byte

// registry is the process-wide board table. byName keys are lowercased
// for case-insensitive lookup; order preserves registration order so
// All() is deterministic. Set values hold canonical board names; a nil
// value is the dynamic "all boards" set.
var registry struct {
	once   sync.Once
	mu     sync.RWMutex
	byName map[string]Arch
	order  []string
	sets   map[string][]string
}

// ensureBuiltins loads the embedded reference spec exactly once. A
// malformed embedded spec is a build defect, so it panics rather than
// returning an error every caller would have to thread.
func ensureBuiltins() {
	registry.once.Do(func() {
		registry.byName = make(map[string]Arch)
		registry.sets = map[string][]string{"all": nil}
		bf, err := parseBoardFile(strings.NewReader(string(builtinSpec)))
		if err != nil {
			panic(fmt.Sprintf("mcu: embedded boards.json: %v", err))
		}
		if err := commitBoardFile(bf, SourceBuiltin); err != nil {
			panic(fmt.Sprintf("mcu: embedded boards.json: %v", err))
		}
	})
}

// mustBuiltin resolves one embedded reference core for the package-level
// convenience vars.
func mustBuiltin(name string) Arch {
	ensureBuiltins()
	a, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("mcu: embedded boards.json is missing reference core %q", name))
	}
	return a
}

// mustSet resolves one embedded named set for the legacy set accessors.
func mustSet(name string) []Arch {
	ensureBuiltins()
	archs, ok := Set(name)
	if !ok {
		panic(fmt.Sprintf("mcu: embedded boards.json is missing set %q", name))
	}
	return archs
}

// Register validates a board and admits it into the registry. The name
// must not collide (case-insensitively) with any registered board. An
// empty Source is recorded as SourceRegistered.
func Register(a Arch) error {
	ensureBuiltins()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registerLocked(a, SourceRegistered)
}

// registerLocked is Register's body; callers hold registry.mu.
func registerLocked(a Arch, defaultSource string) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("mcu: board %q: %w", a.Name, err)
	}
	if a.Source == "" {
		a.Source = defaultSource
	}
	key := strings.ToLower(a.Name)
	if prev, dup := registry.byName[key]; dup {
		return fmt.Errorf("mcu: board %q already registered (from %s)", a.Name, prev.Source)
	}
	registry.byName[key] = a
	registry.order = append(registry.order, a.Name)
	return nil
}

// parseBoardFile decodes and envelope-checks a board file without
// touching the registry.
func parseBoardFile(r io.Reader) (BoardFile, error) {
	var bf BoardFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return BoardFile{}, fmt.Errorf("parse board file: %w", err)
	}
	if bf.Schema != BoardSchema {
		return BoardFile{}, fmt.Errorf("board file schema is %q, want %q", bf.Schema, BoardSchema)
	}
	if bf.Version > BoardVersion {
		return BoardFile{}, fmt.Errorf("board file version %d is newer than this build supports (%d)", bf.Version, BoardVersion)
	}
	if len(bf.Boards) == 0 {
		return BoardFile{}, fmt.Errorf("board file declares no boards")
	}
	return bf, nil
}

// commitBoardFile validates everything in a parsed board file and then
// registers it atomically: a file with any invalid board, intra-file
// duplicate, or unresolvable set registers nothing.
func commitBoardFile(bf BoardFile, source string) error {
	registry.mu.Lock()
	defer registry.mu.Unlock()

	// Phase 1: validate boards against the registry and each other.
	seen := make(map[string]bool, len(bf.Boards))
	for i, a := range bf.Boards {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("board %d (%q): %w", i, a.Name, err)
		}
		key := strings.ToLower(a.Name)
		if seen[key] {
			return fmt.Errorf("board %d: duplicate board name %q within the file", i, a.Name)
		}
		if prev, dup := registry.byName[key]; dup {
			return fmt.Errorf("board %d: name %q already registered (from %s)", i, a.Name, prev.Source)
		}
		seen[key] = true
	}
	// Phase 2: validate sets — every member must be a registry board or
	// one of this file's, and set names must not clash.
	for name, members := range bf.Sets {
		key := strings.ToLower(name)
		if _, dup := registry.sets[key]; dup && source != SourceBuiltin {
			return fmt.Errorf("set %q already registered", name)
		}
		for _, m := range members {
			mk := strings.ToLower(m)
			if _, ok := registry.byName[mk]; !ok && !seen[mk] {
				return fmt.Errorf("set %q references unknown board %q", name, m)
			}
		}
	}
	// Phase 3: commit.
	for _, a := range bf.Boards {
		if err := registerLocked(a, source); err != nil {
			return err // unreachable after phase 1; kept for safety
		}
	}
	for name, members := range bf.Sets {
		registry.sets[strings.ToLower(name)] = append([]string(nil), members...)
	}
	return nil
}

// Load parses a board file, validates it, and registers its boards and
// sets atomically. source labels the provenance recorded on each board
// (LoadFile passes the path). The newly registered boards are returned
// in file order.
func Load(r io.Reader, source string) ([]Arch, error) {
	ensureBuiltins()
	bf, err := parseBoardFile(r)
	if err != nil {
		return nil, fmt.Errorf("mcu: %w", err)
	}
	if err := commitBoardFile(bf, source); err != nil {
		return nil, fmt.Errorf("mcu: %w", err)
	}
	out := make([]Arch, 0, len(bf.Boards))
	for _, a := range bf.Boards {
		got, _ := ByName(a.Name)
		out = append(out, got)
	}
	return out, nil
}

// LoadFile is Load over a file path; the path becomes the provenance.
func LoadFile(path string) ([]Arch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mcu: %w", err)
	}
	defer f.Close()
	return Load(f, path)
}

// LoadFiles loads every board file in a comma-separated list (blank
// entries are skipped) and returns the boards they defined, in file
// order — the -boards flag of every CLI.
func LoadFiles(list string) ([]Arch, error) {
	var loaded []Arch
	for _, path := range strings.Split(list, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		archs, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, archs...)
	}
	return loaded, nil
}

// All returns every registered board in registration order (the four
// reference cores first, then customs as they were added).
func All() []Arch {
	ensureBuiltins()
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Arch, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[strings.ToLower(name)])
	}
	return out
}

// ByName looks a board up by name, case-insensitively ("M4", "m7",
// custom names alike) — an O(1) registry lookup.
func ByName(name string) (Arch, bool) {
	ensureBuiltins()
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	a, ok := registry.byName[strings.ToLower(name)]
	return a, ok
}

// Set resolves a named arch set, case-insensitively. The "all" set is
// dynamic: it returns every board registered at call time.
func Set(name string) ([]Arch, bool) {
	ensureBuiltins()
	registry.mu.RLock()
	members, ok := registry.sets[strings.ToLower(name)]
	registry.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if members == nil { // the dynamic "all" set
		return All(), true
	}
	out := make([]Arch, 0, len(members))
	for _, m := range members {
		a, ok := ByName(m)
		if !ok {
			return nil, false // set admitted only with resolvable members
		}
		out = append(out, a)
	}
	return out, true
}

// RegisterSet names a reusable arch set. Every member must already be
// registered and the name must be free.
func RegisterSet(name string, members []string) error {
	ensureBuiltins()
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("mcu: set has no name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := registry.sets[key]; dup {
		return fmt.Errorf("mcu: set %q already registered", name)
	}
	for _, m := range members {
		if _, ok := registry.byName[strings.ToLower(m)]; !ok {
			return fmt.Errorf("mcu: set %q references unknown board %q", name, m)
		}
	}
	registry.sets[key] = append([]string(nil), members...)
	return nil
}

// SetNames lists the registered set names, sorted.
func SetNames() []string {
	ensureBuiltins()
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.sets))
	for name := range registry.sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResolveArchs turns a CLI-style query into a board list. An empty
// query is the default characterization set ("default" = Table IV);
// otherwise each comma-separated token names a set or a board (sets
// tried first), so "tableiv,mycore" extends a reference set with a
// custom. Boards selected more than once keep their first position;
// unknown tokens report the available vocabulary.
func ResolveArchs(query string) ([]Arch, error) {
	ensureBuiltins()
	query = strings.TrimSpace(query)
	if query == "" {
		return mustSet("default"), nil
	}
	var out []Arch
	seen := map[string]bool{}
	add := func(a Arch) {
		key := strings.ToLower(a.Name)
		if !seen[key] {
			seen[key] = true
			out = append(out, a)
		}
	}
	for _, tok := range strings.Split(query, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if archs, ok := Set(tok); ok {
			for _, a := range archs {
				add(a)
			}
			continue
		}
		a, ok := ByName(tok)
		if !ok {
			return nil, fmt.Errorf("mcu: unknown board or set %q (boards: %s; sets: %s)",
				tok, strings.Join(boardNames(), ", "), strings.Join(SetNames(), ", "))
		}
		add(a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mcu: arch query %q selects no boards", query)
	}
	return out, nil
}

// boardNames lists registered board names in registration order.
func boardNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]string(nil), registry.order...)
}
