package mcu_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mcu"
)

// nameSeq makes the names of registered test boards unique.
var nameSeq atomic.Int64

// uniqueName returns prefix with a process-unique suffix, so a test
// that registers passes again under -count N.
func uniqueName(prefix string) string { return fmt.Sprintf("%s%d", prefix, nameSeq.Add(1)) }

// testBoard returns a valid custom board definition. Each test must use
// a unique name (uniqueName): the registry is process-global and has no
// reset, which is exactly the production situation the tests should
// exercise.
func testBoard(name string) mcu.Arch {
	a, ok := mcu.ByName("M4")
	if !ok {
		panic("reference M4 missing")
	}
	a.Name = name
	a.Board = "test fixture"
	a.Source = ""
	return a
}

// boardJSON wraps one board literal in a valid file envelope.
func boardJSON(board string) string {
	return `{"schema": "entobench.boards", "version": 1, "boards": [` + board + `]}`
}

// validBoardLit is a complete valid board JSON literal with the given name.
func validBoardLit(name string) string {
	return `{
		"name": "` + name + `", "board": "t", "isa": "ARMv7E-M",
		"clock_hz": 100e6, "fpu": "sp", "sram_kb": 256, "has_cache": false,
		"model": {
			"cpi_f32": 1.1, "cpi_f64": 1.1, "cpi_i": 1.0, "cpi_b": 2.0,
			"mem_on": 1.5, "mem_off": 2.0, "branch_off_penalty": 0.5,
			"ipc": 1.0, "soft_f32": 1, "soft_f64": 16,
			"base_power_on_w": 0.05, "base_power_off_w": 0.05,
			"dyn_f_on_w": 0.01, "dyn_m_on_w": 0.01,
			"dyn_f_off_w": 0.01, "dyn_m_off_w": 0.01
		}
	}`
}

// load is mcu.Load over a JSON string.
func load(t *testing.T, doc string) ([]mcu.Arch, error) {
	t.Helper()
	return mcu.Load(strings.NewReader(doc), "test")
}

func TestRegisterAndByNameCaseInsensitive(t *testing.T) {
	name := uniqueName("RegCase")
	if err := mcu.Register(testBoard(name)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
		a, ok := mcu.ByName(q)
		if !ok {
			t.Fatalf("ByName(%q) failed after Register", q)
		}
		if a.Source != mcu.SourceRegistered {
			t.Errorf("ByName(%q).Source = %q, want %q", q, a.Source, mcu.SourceRegistered)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	dup := uniqueName("DupBoard")
	if err := mcu.Register(testBoard(dup)); err != nil {
		t.Fatal(err)
	}
	// Exact and case-folded collisions, including against a builtin.
	for _, name := range []string{dup, strings.ToLower(dup), "m4"} {
		err := mcu.Register(testBoard(name))
		if err == nil {
			t.Fatalf("Register(%q) should collide", name)
		}
		if !strings.Contains(err.Error(), "already registered") {
			t.Errorf("Register(%q) error %q should say already registered", name, err)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	cases := []struct {
		mutate func(*mcu.Arch)
		want   string
	}{
		{func(a *mcu.Arch) { a.Name = "" }, "no name"},
		{func(a *mcu.Arch) { a.Name = "two words" }, "commas or whitespace"},
		{func(a *mcu.Arch) { a.ClockHz = -1 }, "clock_hz"},
		{func(a *mcu.Arch) { a.SRAMKB = 0 }, "sram_kb"},
		{func(a *mcu.Arch) { a.FPU = mcu.FPUKind(9) }, "invalid FPU kind"},
		{func(a *mcu.Arch) { a.Model.CPIF32 = 0 }, "cpi_f32"},
		{func(a *mcu.Arch) { a.Model.SoftF64 = 0.5 }, "soft"},
		{func(a *mcu.Arch) { a.Model.MemOff = a.Model.MemOn / 2 }, "mem_off"},
		{func(a *mcu.Arch) { a.Model.BasePowerOffW = a.Model.BasePowerOnW * 100 }, "implausible"},
		{func(a *mcu.Arch) { a.Model.StaticF = 3 }, "static_f"},
	}
	for i, c := range cases {
		a := testBoard("NeverAdmitted")
		c.mutate(&a)
		err := mcu.Register(a)
		if err == nil {
			t.Fatalf("case %d: Register admitted an invalid board", i)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
	}
	if _, ok := mcu.ByName("NeverAdmitted"); ok {
		t.Error("an invalid board reached the registry")
	}
}

func TestLoadRejectsBadJSON(t *testing.T) {
	if _, err := load(t, `{"schema": "entobench.boards", "ver`); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := load(t, boardJSON(validBoardLit("X1"))[:10]); err == nil {
		t.Error("truncated board file should fail")
	}
	_, err := load(t, `{"schema": "something.else", "version": 1, "boards": []}`)
	if err == nil || !strings.Contains(err.Error(), "entobench.boards") {
		t.Errorf("wrong schema error %v should name the expected schema", err)
	}
	_, err = load(t, `{"schema": "entobench.boards", "version": 99, "boards": []}`)
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Errorf("future version error %v should say newer", err)
	}
	_, err = load(t, `{"schema": "entobench.boards", "version": 1, "boards": []}`)
	if err == nil || !strings.Contains(err.Error(), "no boards") {
		t.Errorf("empty file error %v should say no boards", err)
	}
	_, err = load(t, `{"schema": "entobench.boards", "version": 1, "bords": [1]}`)
	if err == nil {
		t.Error("unknown envelope field should fail (DisallowUnknownFields)")
	}
}

func TestLoadRejectsNegativeClock(t *testing.T) {
	bad := strings.Replace(validBoardLit("NegClock"), `"clock_hz": 100e6`, `"clock_hz": -80e6`, 1)
	_, err := load(t, boardJSON(bad))
	if err == nil || !strings.Contains(err.Error(), "clock_hz") || !strings.Contains(err.Error(), "positive") {
		t.Errorf("negative clock error %v should name clock_hz and say positive", err)
	}
	if _, ok := mcu.ByName("NegClock"); ok {
		t.Error("board with negative clock was registered")
	}
}

func TestLoadRejectsUnknownFPUKind(t *testing.T) {
	bad := strings.Replace(validBoardLit("BadFPU"), `"fpu": "sp"`, `"fpu": "quad"`, 1)
	_, err := load(t, boardJSON(bad))
	if err == nil {
		t.Fatal("unknown FPU kind should fail")
	}
	for _, want := range []string{`"quad"`, "none", "sp+dp"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("FPU error %q should mention %s (the accepted vocabulary)", err, want)
		}
	}
}

func TestLoadRejectsDuplicateNames(t *testing.T) {
	// Intra-file duplicate (case-folded): nothing registers.
	doc := `{"schema": "entobench.boards", "version": 1, "boards": [` +
		validBoardLit("IntraDup") + "," + validBoardLit("intradup") + `]}`
	_, err := load(t, doc)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("intra-file duplicate error %v should say duplicate", err)
	}
	if _, ok := mcu.ByName("IntraDup"); ok {
		t.Error("duplicate-name file partially registered")
	}
	// Collision with an already registered board.
	_, err = load(t, boardJSON(validBoardLit("m7")))
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("builtin collision error %v should say already registered", err)
	}
}

func TestLoadIsAtomic(t *testing.T) {
	// First board is valid, second is not: the file must register nothing.
	bad := strings.Replace(validBoardLit("AtomBad"), `"sram_kb": 256`, `"sram_kb": -1`, 1)
	doc := `{"schema": "entobench.boards", "version": 1, "boards": [` +
		validBoardLit("AtomGood") + "," + bad + `]}`
	if _, err := load(t, doc); err == nil {
		t.Fatal("file with an invalid board should fail")
	}
	if _, ok := mcu.ByName("AtomGood"); ok {
		t.Error("valid board from a rejected file was registered (load must be atomic)")
	}
	// A set referencing an unknown board also rejects the whole file.
	doc = `{"schema": "entobench.boards", "version": 1, "boards": [` +
		validBoardLit("AtomGood2") + `], "sets": {"atomset": ["AtomGood2", "NoSuchBoard"]}}`
	_, err := load(t, doc)
	if err == nil || !strings.Contains(err.Error(), "unknown board") {
		t.Errorf("bad set error %v should say unknown board", err)
	}
	if _, ok := mcu.ByName("AtomGood2"); ok {
		t.Error("board from a file with a bad set was registered")
	}
}

func TestLoadRegistersBoardsAndSets(t *testing.T) {
	a, b, set := uniqueName("SetBoardA"), uniqueName("SetBoardB"), uniqueName("pairset")
	doc := `{"schema": "entobench.boards", "version": 1, "boards": [` +
		validBoardLit(a) + "," + validBoardLit(b) +
		`], "sets": {"` + set + `": ["` + a + `", "m7", "` + strings.ToLower(b) + `"]}}`
	got, err := load(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != a || got[1].Name != b {
		t.Fatalf("Load returned %v, want the two file boards in order", got)
	}
	if got[0].Source != "test" {
		t.Errorf("loaded board source = %q, want the load source label", got[0].Source)
	}
	boards, ok := mcu.Set(strings.ToUpper(set)) // set lookup is case-insensitive too
	if !ok {
		t.Fatal("file-declared set did not register")
	}
	if len(boards) != 3 || boards[0].Name != a || boards[1].Name != "M7" || boards[2].Name != b {
		t.Errorf("set resolved to %v, want [%s M7 %s]", boards, a, b)
	}
}

func TestResolveArchs(t *testing.T) {
	qb := uniqueName("QueryBoard")
	if err := mcu.Register(testBoard(qb)); err != nil {
		t.Fatal(err)
	}
	// Empty query: the default characterization set.
	def, err := mcu.ResolveArchs("")
	if err != nil || len(def) != 3 {
		t.Fatalf("ResolveArchs(\"\") = %v, %v; want the 3-core default set", def, err)
	}
	// A set name.
	cs2, err := mcu.ResolveArchs("cs2")
	if err != nil || len(cs2) != 3 || cs2[0].Name != "M0+" {
		t.Fatalf("ResolveArchs(cs2) = %v, %v", cs2, err)
	}
	// Comma-separated board names, case-insensitive, customs included.
	mix, err := mcu.ResolveArchs("m7, " + strings.ToLower(qb))
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Name != "M7" || mix[1].Name != qb {
		t.Errorf("ResolveArchs(m7, %s) = %v", strings.ToLower(qb), mix)
	}
	// Mixed set + board tokens: the set expands in place and repeats
	// collapse onto their first position.
	ext, err := mcu.ResolveArchs("tableiv," + qb + ",m7")
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 4 || ext[0].Name != "M4" || ext[2].Name != "M7" || ext[3].Name != qb {
		t.Errorf("ResolveArchs(tableiv,%s,m7) = %v, want Table IV then the custom, M7 not duplicated", qb, ext)
	}
	// Unknown tokens report the available vocabulary.
	_, err = mcu.ResolveArchs("nonesuch")
	if err == nil {
		t.Fatal("unknown board should fail")
	}
	for _, want := range []string{`"nonesuch"`, "M4", "tableiv"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("vocabulary error %q should mention %s", err, want)
		}
	}
	if _, err := mcu.ResolveArchs(" , "); err == nil {
		t.Error("a query selecting no boards should fail")
	}
}

func TestAllSetIsDynamic(t *testing.T) {
	before, ok := mcu.Set("all")
	if !ok {
		t.Fatal("the all set must exist")
	}
	dyn := uniqueName("DynAllBoard")
	if err := mcu.Register(testBoard(dyn)); err != nil {
		t.Fatal(err)
	}
	after, _ := mcu.Set("all")
	if len(after) != len(before)+1 {
		t.Errorf("all grew %d -> %d, want +1", len(before), len(after))
	}
	if after[len(after)-1].Name != dyn {
		t.Errorf("all should end with the newest board, got %s", after[len(after)-1].Name)
	}
}

func TestFPUKindRoundTrip(t *testing.T) {
	for _, k := range []mcu.FPUKind{mcu.NoFPU, mcu.SPOnly, mcu.SPDP} {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back mcu.FPUKind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("FPUKind %v round-tripped to %v", k, back)
		}
	}
	if _, err := mcu.FPUKind(7).MarshalText(); err == nil {
		t.Error("marshaling an invalid FPUKind should fail")
	}
}

// A custom board behaves like a reference core across the model: the
// registry admits it and Estimate produces physical numbers.
func TestCustomBoardEstimates(t *testing.T) {
	a := testBoard(uniqueName("EstBoard"))
	if err := mcu.Register(a); err != nil {
		t.Fatal(err)
	}
	got, _ := mcu.ByName(strings.ToLower(a.Name))
	e := got.Estimate(mix, mcu.PrecF32, true)
	ref, _ := mcu.ByName("M4")
	want := ref.Estimate(mix, mcu.PrecF32, true)
	// Same model parameters as the M4 it was cloned from → same numbers.
	if e != want {
		t.Errorf("cloned board estimate %+v != reference %+v", e, want)
	}
}
