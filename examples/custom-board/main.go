// Custom board walkthrough: define a core EntoBench has never heard of
// in a JSON file, load it at runtime, and characterize the suite on it —
// no edits to internal/ required. The same file works from the CLI:
//
//	entobench sweep -boards examples/custom-board/m85.json -archs M85
//	entobench run madgwick -boards examples/custom-board/m85.json -arch M85
//
// m85.json declares a hypothetical Cortex-M85-class part and a "nextgen"
// set pairing it with the reference M7; DESIGN.md §11 documents every
// field of the board-file schema.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/ento"
)

func main() {
	// Board files resolve relative to the caller; find ours next to this
	// source file when run as `go run ./examples/custom-board`.
	path := "examples/custom-board/m85.json"
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join(".", "m85.json")
	}

	// Load: the file is validated as a whole (schema envelope, model
	// sanity, name collisions) and registers atomically.
	boards, err := ento.LoadBoards(path)
	if err != nil {
		log.Fatal(err)
	}
	m85 := boards[0]
	fmt.Printf("Registered %s (%s, %.0f MHz, %d KB SRAM) from %s\n\n",
		m85.Name, m85.ISA, m85.ClockHz/1e6, m85.SRAMKB, m85.Source)

	// The custom board now resolves everywhere a reference core does.
	res, err := ento.Run("madgwick", "m85", true) // lookups are case-insensitive
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("madgwick on %s: %.2f µs, %.4f µJ, %.1f mW peak\n\n",
		m85.Name, res.Measured.LatencyS*1e6, res.Measured.EnergyJ*1e6,
		res.Measured.PeakPowerW*1e3)

	// Sets declared in the file resolve by query, same as "tableiv" or
	// "all": here, the head-to-head "nextgen" pairing of M7 and M85.
	archs, err := ento.ArchSet("nextgen")
	if err != nil {
		log.Fatal(err)
	}

	// Characterize the full suite on that selection. With 2048 KB of
	// SRAM the M85 even fits sift, which the reference M33/M4 cannot run.
	c, err := ento.Sweep(archs, ento.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Suite characterization over %v: %d datapoints\n\n",
		names(archs), c.Datapoints())
	c.WriteTable4(os.Stdout)

	// The JSON export carries model provenance for every board in the
	// sweep — a result file produced with a custom board names its source
	// file, so it stays self-describing.
	rep := c.JSONExport()
	fmt.Println("\nExported board provenance:")
	for _, b := range rep.Boards {
		fmt.Printf("  %-4s source=%s\n", b.Name, b.Source)
	}
}

func names(archs []ento.Arch) []string {
	out := make([]string, len(archs))
	for i, a := range archs {
		out[i] = a.Name
	}
	return out
}
