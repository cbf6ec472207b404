package mcu

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzLoadBoards feeds arbitrary bytes through the board-file reader.
// parseBoardFile and Validate must never panic, and a Load that rejects
// the bytes must leave the registry's boards and sets as it found them.
// A file it accepts stays registered for the rest of the run, so later
// inputs naming the same boards or sets meet the collision checks.
func FuzzLoadBoards(f *testing.F) {
	f.Add(builtinSpec)
	m85, err := os.ReadFile("../../examples/custom-board/m85.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m85)
	snapshot := func() string {
		var b strings.Builder
		for _, a := range All() {
			fmt.Fprintf(&b, "%+v\n", a)
		}
		for _, name := range SetNames() {
			members, _ := Set(name)
			fmt.Fprintf(&b, "%s:", name)
			for _, a := range members {
				fmt.Fprintf(&b, " %s", a.Name)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bf, err := parseBoardFile(bytes.NewReader(data)); err == nil {
			for _, a := range bf.Boards {
				_ = a.Validate()
			}
		}
		before := snapshot()
		if _, err := Load(bytes.NewReader(data), "fuzz"); err != nil {
			if after := snapshot(); after != before {
				t.Fatalf("rejected Load (%v) changed the registry:\nbefore:\n%s\nafter:\n%s", err, before, after)
			}
		}
	})
}
