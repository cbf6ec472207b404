package main

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mcu"
)

const exampleBoardFile = "../../examples/custom-board/m85.json"

// loadExample loads the example board file once per process through the
// -boards path: the registry is process-global, so a second load of the
// same file collides, and the tests must pass again under -count N.
var loadExample = sync.OnceValues(func() ([]mcu.Arch, error) {
	return resolveSweepArchs(exampleBoardFile, "")
})

// The -boards/-archs plumbing: files load through the registry and the
// query resolves the sweep's board selection.
func TestResolveSweepArchs(t *testing.T) {
	// No flags: the Table IV set, passed explicitly like every selection.
	archs, err := resolveSweepArchs("", "")
	if err != nil || !reflect.DeepEqual(names(archs), names(mcu.TableIVSet())) {
		t.Fatalf("resolveSweepArchs(\"\",\"\") = %v, %v; want the Table IV set", names(archs), err)
	}
	// -boards alone: the customs ride alongside the Table IV set.
	archs, err = loadExample()
	if err != nil {
		t.Fatal(err)
	}
	if len(archs) != 4 || archs[3].Name != "M85" {
		t.Fatalf("sweep -boards selection = %v, want Table IV + M85", names(archs))
	}
	if !strings.Contains(archs[3].Source, "m85.json") {
		t.Errorf("loaded board source = %q, want the file path", archs[3].Source)
	}
	// -archs resolves sets (including file-declared ones) and names.
	archs, err = resolveSweepArchs("", "nextgen")
	if err != nil {
		t.Fatal(err)
	}
	if len(archs) != 2 || archs[0].Name != "M7" || archs[1].Name != "M85" {
		t.Fatalf("-archs nextgen = %v", names(archs))
	}
	archs, err = resolveSweepArchs("", "m85,M4")
	if err != nil || len(archs) != 2 {
		t.Fatalf("-archs m85,M4 = %v, %v", names(archs), err)
	}
	// Unknown tokens surface the registry's vocabulary error.
	if _, err = resolveSweepArchs("", "warp9"); err == nil || !strings.Contains(err.Error(), "unknown board") {
		t.Errorf("unknown -archs token: err = %v", err)
	}
	// A missing board file is a load error, not a silent default sweep.
	if _, err = resolveSweepArchs("no/such/file.json", ""); err == nil {
		t.Error("missing board file should fail")
	}
}

func TestLoadBoardFilesList(t *testing.T) {
	// Empty list (or only blanks): nothing to do.
	for _, list := range []string{"", " , "} {
		if archs, err := mcu.LoadFiles(list); err != nil || archs != nil {
			t.Fatalf("mcu.LoadFiles(%q) = %v, %v", list, archs, err)
		}
	}
	// Re-loading the same file collides on the board name — the registry
	// is process-global, so the second load reports the duplicate.
	if _, err := loadExample(); err != nil {
		t.Fatal(err)
	}
	_, err := mcu.LoadFiles(exampleBoardFile)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("re-loading a board file: err = %v, want a name collision", err)
	}
}

func names(archs []mcu.Arch) []string {
	out := make([]string, len(archs))
	for i, a := range archs {
		out[i] = a.Name
	}
	return out
}
