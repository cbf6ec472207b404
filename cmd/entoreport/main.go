// Command entoreport regenerates EXPERIMENTS.md: every table and figure
// of the paper, rendered from a live run of the suite, with the
// paper-vs-reproduced commentary blocks kept alongside.
//
// Usage:
//
//	entoreport [-o EXPERIMENTS.md] [-fig5n 50] [-fig4step 2] [-j N]
//	           [-json FILE] [-boards FILE] [-archs LIST] [-cachedir DIR]
//	           [-backend NAME] [-tracefile FILE]
//
// -json additionally saves the machine-readable characterization export
// (the same sweep the report renders as Tables III/IV) to FILE — the
// BENCH_*.json artifacts perf-trajectory tooling diffs across commits;
// see docs/observability.md for the schema. -boards loads user board
// files into the registry and -archs selects the cores Tables III/IV
// (and the JSON export) cover; the case studies keep their paper-fixed
// core sets. -cachedir backs the sweep with the persistent per-cell
// store (cells computed by any prior run load from disk) and adds a
// provenance block to the JSON export saying how many cells were
// cached versus computed. -backend selects the measurement backend for
// the characterization cells and -tracefile replays externally captured
// traces through the trace backend (docs/backends.md); covered cells
// carry source "measured" in the JSON export, the rest fall back to the
// simulator.
//
// SIGINT cancels the sweep; a partial characterization still flushes to
// the -json file (marked partial:true, with a failures block) before
// the process exits non-zero, so an interrupted overnight run is not a
// total loss (DESIGN.md §12).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/ento"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	fig5n := flag.Int("fig5n", 50, "problems per Fig 5 datapoint (paper: 1000)")
	fig4step := flag.Int("fig4step", 2, "Fig 4 fraction-bit stride (1 = full sweep)")
	j := flag.Int("j", 0, "characterization worker goroutines (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "also write the characterization JSON export to this file")
	boards := flag.String("boards", "", "comma-separated board files to load before the sweep")
	archsQ := flag.String("archs", "", "board selection for Tables III/IV: a set name or comma-separated board names")
	cacheDir := flag.String("cachedir", "", "persistent per-cell result cache directory (created if missing)")
	backendName := flag.String("backend", "", "measurement backend for the cells (sim, trace, or a registered name; default sim)")
	traceFile := flag.String("tracefile", "", "trace-capture CSV replayed by the trace backend (implies -backend trace)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cache *report.PersistentCellCache
	if *cacheDir != "" {
		var err error
		if cache, err = report.OpenCellCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "entoreport:", err)
			os.Exit(1)
		}
	}
	be, err := harness.ResolveBackend(*backendName, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "entoreport:", err)
		os.Exit(1)
	}

	rec := obs.NewRecorder() // the sweep's job counts: the -cachedir provenance block
	c, err := runSweep(obs.WithRecorder(ctx, rec), *boards, *archsQ, *j, cache, be)
	if err != nil {
		// Partial sweep: salvage what completed. The JSON export is the
		// artifact overnight runs exist for, so flush it (partial:true)
		// before exiting non-zero; the report itself is not generated
		// from an incomplete dataset.
		if *jsonPath != "" && len(c.Records) > 0 {
			if werr := writeJSON(*jsonPath, c, cache, rec); werr != nil {
				fmt.Fprintln(os.Stderr, "entoreport:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "entoreport: partial export (%d failed/skipped cells) written to %s\n",
					len(c.Failures()), *jsonPath)
			}
		}
		fmt.Fprintln(os.Stderr, "entoreport:", err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	if err := generate(&buf, c, *fig5n, *fig4step); err != nil {
		fmt.Fprintln(os.Stderr, "entoreport:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, c, cache, rec); err != nil {
			fmt.Fprintln(os.Stderr, "entoreport:", err)
			os.Exit(1)
		}
	}
	if *out == "" {
		os.Stdout.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "entoreport:", err)
		os.Exit(1)
	}
}

// runSweep loads any -boards files, resolves the -archs selection (the
// Table IV set by default), and runs — or reuses — the suite
// characterization through the keyed sweep cache. The context cancels
// the sweep; the partial characterization comes back alongside the
// error.
func runSweep(ctx context.Context, boardFiles, archsQ string, workers int, cache *report.PersistentCellCache, be harness.Backend) (report.Characterization, error) {
	if _, err := mcu.LoadFiles(boardFiles); err != nil {
		return report.Characterization{}, err
	}
	archs := mcu.TableIVSet()
	if archsQ != "" {
		var err error
		if archs, err = mcu.ResolveArchs(archsQ); err != nil {
			return report.Characterization{}, err
		}
	}
	opts := core.SweepOptions{Workers: workers, Context: ctx, Backend: be}
	if cache != nil {
		opts.CellCache = cache
	}
	return report.RunSweepQuery(core.Suite(), archs, opts)
}

// writeJSON saves the characterization export of the sweep the report
// already paid for. With a persistent cell cache in play the export
// carries the additive cache-provenance block (cells loaded from the
// store versus healthy cells computed, from the sweep's recorder);
// without one the bytes are exactly the classic export.
func writeJSON(path string, c report.Characterization, cache *report.PersistentCellCache, rec *obs.Recorder) error {
	rep := c.JSONExport()
	if cache != nil {
		prov := report.CacheProvenanceOf(cache.Dir(), rec)
		rep.Cache = &prov
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSONReport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func generate(buf *bytes.Buffer, c report.Characterization, fig5n, fig4step int) error {
	fmt.Fprintf(buf, "# EntoBench-Go experiment log\n\nGenerated %s by cmd/entoreport.\n\n",
		time.Now().UTC().Format(time.RFC3339))
	fmt.Fprintln(buf, "```")
	ento.WriteTable5(buf)
	fmt.Fprintln(buf, "```")

	fmt.Fprintf(buf, "\nFull sweep: %d measured datapoints (paper claims >400).\n\n```\n", c.Datapoints())
	c.WriteTable3(buf)
	fmt.Fprintln(buf)
	c.WriteTable4(buf)
	fmt.Fprintln(buf, "```")

	cs1, err := report.RunCS1()
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "\n## Case Study #1\n\n```")
	cs1.WriteTable6(buf)
	fmt.Fprintln(buf)
	cs1.WriteFig3(buf)
	fmt.Fprintln(buf, "```")

	fmt.Fprintln(buf, "\n## Case Study #2\n\n```")
	report.RunCS2Table7().WriteTable7(buf)
	fmt.Fprintln(buf)
	report.RunFig4(fig4step).WriteFig4(buf)
	fmt.Fprintln(buf, "```")

	cs3, err := report.RunCS3()
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "\n## Case Study #3\n\n```")
	cs3.WriteTable8(buf)
	fmt.Fprintln(buf, "```")

	cs4, err := report.RunCS4(fig5n)
	if err != nil {
		return err
	}
	fmt.Fprintln(buf, "\n## Case Study #4\n\n```")
	cs4.WriteFig5(buf)
	fmt.Fprintln(buf, "```")
	return nil
}
