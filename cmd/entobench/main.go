// Command entobench is the suite's command-line front end: list
// kernels, run individual benchmarks, regenerate every table and figure
// of the paper from the live suite, and export the full
// characterization in machine-readable form.
//
// Usage:
//
//	entobench list                 # kernels with stage/category/dataset
//	entobench archs                # Table V
//	entobench run <kernel> [-arch M4] [-boards FILE] [-nocache] [-csv FILE]
//	entobench table3 | table4 | table5 | table6 | table7 | table8
//	entobench fig3 | fig4 [-step N] | fig5 [-n N]
//	entobench sweep [-j N] [-boards FILE] [-archs LIST] [-json]
//	                [-backend NAME] [-tracefile FILE]
//	                [-cachedir DIR] [-shard I/N]
//	                [-trace FILE] [-progress]
//	                [-cpuprofile FILE] [-memprofile FILE]
//	                               # the full >400-datapoint characterization,
//	                               # fanned across N worker goroutines;
//	                               # -boards loads user board files and
//	                               # -archs picks the cores (set name or list);
//	                               # -backend selects the measurement backend
//	                               # and -tracefile replays captured traces
//	                               # through the trace backend;
//	                               # -cachedir persists per-cell results so
//	                               # overlapping sweeps compute only the delta;
//	                               # -shard I/N sweeps every N-th kernel starting
//	                               # at I and emits a shard bundle (requires -json)
//	entobench trace <kernel> [-arch M4] [-boards FILE] [-o FILE]
//	                               # export a synthesized trace-capture CSV
//	entobench merge [-o FILE] <shard.json>...
//	                               # join shard bundles into the v1 JSON report
//	entobench closedloop           # Section VI-E task-level demo
//
// The command table below (var commands) is the single source of truth
// for the usage text and the README command reference; a test keeps all
// three in sync.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/ento"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

// command is one entobench subcommand: its spelling(s), the synopsis of
// its arguments and flags, a one-line summary, and the implementation.
type command struct {
	name    string
	aliases []string
	args    string // argument/flag synopsis, "" when the command takes none
	summary string
	run     func(args []string) error
}

// commands drives the dispatch switch-equivalent, the usage text, and
// the README command reference (TestUsageListsEveryCommand).
var commands = []command{
	{name: "list", summary: "kernels in the suite (stage, category, dataset)",
		run: func([]string) error { return list() }},
	{name: "archs", aliases: []string{"table5"}, summary: "modeled Cortex-M cores (Table V)",
		run: func([]string) error { ento.WriteTable5(os.Stdout); return nil }},
	{name: "run", args: "<kernel> [-arch M4] [-boards FILE] [-nocache] [-csv FILE]",
		summary: "run one kernel through the full measurement pipeline",
		run:     run},
	{name: "table3", summary: "static metrics for the whole suite",
		run: func([]string) error { return ento.WriteTable3(os.Stdout) }},
	{name: "table4", summary: "dynamic metrics for the whole suite",
		run: func([]string) error { return ento.WriteTable4(os.Stdout) }},
	{name: "table6", summary: "perception energy/peak power across datasets (Case Study #1)",
		run: func([]string) error { return ento.WriteTable6(os.Stdout) }},
	{name: "fig3", summary: "perception cycle-count series (Case Study #1)",
		run: func([]string) error { return ento.WriteFig3(os.Stdout) }},
	{name: "table7", summary: "attitude filter precision/energy (Case Study #2)",
		run: func([]string) error { ento.WriteTable7(os.Stdout); return nil }},
	{name: "fig4", args: "[-step N]", summary: "fixed-point failure-rate sweep (Case Study #2)",
		run: fig4},
	{name: "table8", summary: "FLOPs vs measured cycles/energy (Case Study #3)",
		run: func([]string) error { return ento.WriteTable8(os.Stdout) }},
	{name: "fig5", args: "[-n N]", summary: "relative-pose solver panels (Case Study #4)",
		run: fig5},
	{name: "sweep", args: "[-j N] [-boards FILE] [-archs LIST] [-json] [-backend NAME] [-tracefile FILE] [-cachedir DIR] [-shard I/N] [-trace FILE] [-progress] [-celltimeout DUR] [-cpuprofile FILE] [-memprofile FILE]",
		summary: "full characterization with the datapoint count",
		run:     sweep},
	{name: "trace", args: "<kernel> [-arch M4] [-boards FILE] [-o FILE]",
		summary: "export a kernel's synthesized capture as a trace CSV (cache on and off)",
		run:     traceExport},
	{name: "merge", args: "[-o FILE] <shard.json>...",
		summary: "join shard bundles into one v1 JSON report",
		run:     merge},
	{name: "closedloop", summary: "Section VI-E demo: task-level metrics + compute bill",
		run: func([]string) error { return closedLoop() }},
}

// lookup resolves a command by name or alias.
func lookup(name string) (command, bool) {
	for _, c := range commands {
		if c.name == name {
			return c, true
		}
		for _, a := range c.aliases {
			if a == name {
				return c, true
			}
		}
	}
	return command{}, false
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Fault-injection hook for end-to-end robustness smoke runs (CI,
	// docs/robustness.md): ENTOBENCH_FAULTINJECT=panic[,error,...]
	// registers deliberately broken kernels before dispatch, exactly as
	// a user's buggy kernel would arrive through ento.RegisterKernel.
	if modes := os.Getenv("ENTOBENCH_FAULTINJECT"); modes != "" {
		if err := faultinject.RegisterModes(modes); err != nil {
			fmt.Fprintln(os.Stderr, "entobench:", err)
			os.Exit(2)
		}
	}
	cmd, ok := lookup(os.Args[1])
	if !ok {
		usage()
		os.Exit(2)
	}
	if err := cmd.run(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "entobench:", err)
		os.Exit(1)
	}
}

// usageText renders the command reference from the table.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: entobench <command>\n\ncommands:\n")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for _, c := range commands {
		name := c.name
		if len(c.aliases) > 0 {
			name += " (" + strings.Join(c.aliases, ", ") + ")"
		}
		if c.args != "" {
			name += " " + c.args
		}
		fmt.Fprintf(tw, "  %s\t%s\n", name, c.summary)
	}
	tw.Flush()
	return b.String()
}

func usage() {
	fmt.Fprint(os.Stderr, usageText())
}

func list() error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Stage\tKernel\tCategory\tDataset\tNotes")
	for _, s := range ento.Suite() {
		notes := ""
		if s.M7Only {
			notes = "M7 only (SRAM)"
		}
		if s.FLOPs > 0 {
			notes += fmt.Sprintf(" claimed FLOPs=%d", s.FLOPs)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", s.Stage, s.Name, s.Category, s.Dataset, notes)
	}
	return tw.Flush()
}

// reorderArgs rewrites a subcommand argument list so every flag (with
// its value) precedes the positional arguments, letting one fs.Parse
// accept "run madgwick -arch M33 -nocache" and "run -arch M33 madgwick"
// alike. The old approach — re-parsing the FlagSet on its own leftover
// args — silently dropped positionals after the first and double-set
// already-seen flags. Boolean flags are recognized through the FlagSet
// so "-nocache madgwick" does not swallow the kernel name as a value.
func reorderArgs(fs *flag.FlagSet, args []string) []string {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			pos = append(pos, args[i+1:]...)
			break
		}
		if len(a) < 2 || a[0] != '-' {
			pos = append(pos, a)
			continue
		}
		flags = append(flags, a)
		name := strings.TrimLeft(a, "-")
		if strings.Contains(name, "=") {
			continue // -flag=value carries its own value
		}
		f := fs.Lookup(name)
		boolFlag := false
		if f != nil {
			if bf, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && bf.IsBoolFlag() {
				boolFlag = true
			}
		}
		if !boolFlag && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return append(flags, pos...)
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	arch := fs.String("arch", "M4", "target core: M0+, M4, M33, M7, or a custom board")
	boards := fs.String("boards", "", "comma-separated board files to load before resolving -arch")
	nocache := fs.Bool("nocache", false, "disable the I/D caches")
	csvPath := fs.String("csv", "", "append the measurement to a CSV log")
	if err := fs.Parse(reorderArgs(fs, args)); err != nil {
		return err
	}
	if _, err := mcu.LoadFiles(*boards); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("run needs a kernel name")
	}
	kernel := fs.Arg(0)
	res, err := ento.Run(kernel, *arch, !*nocache)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err == nil {
			err = harness.WriteResultsCSV(f, []harness.Result{res}, fi.Size() == 0)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("kernel      %s\n", res.Kernel)
	fmt.Printf("core        %s (%s), cache on: %v\n", res.Arch.Name, res.Arch.Board, res.CacheOn)
	fmt.Printf("ops         F=%d I=%d M=%d B=%d\n", res.Counts.F, res.Counts.I, res.Counts.M, res.Counts.B)
	fmt.Printf("cycles      %.0f\n", res.Model.Cycles)
	fmt.Printf("latency     %.2f µs\n", res.Measured.LatencyS*1e6)
	fmt.Printf("energy      %.3f µJ\n", res.Measured.EnergyJ*1e6)
	fmt.Printf("avg power   %.1f mW\n", res.Measured.AvgPowerW*1e3)
	fmt.Printf("peak power  %.1f mW\n", res.Measured.PeakPowerW*1e3)
	fmt.Printf("reps in ROI %d\n", res.Measured.Reps)
	if res.Valid {
		fmt.Println("validation  PASS")
	} else {
		fmt.Printf("validation  FAIL: %v\n", res.ValidErr)
	}
	return nil
}

func fig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	step := fs.Int("step", 2, "fraction-bit stride of the sweep (1 = full)")
	if err := fs.Parse(reorderArgs(fs, args)); err != nil {
		return err
	}
	ento.WriteFig4(os.Stdout, *step)
	return nil
}

func fig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	n := fs.Int("n", 50, "synthetic problems per datapoint (paper: 1000)")
	if err := fs.Parse(reorderArgs(fs, args)); err != nil {
		return err
	}
	return ento.WriteFig5(os.Stdout, *n)
}

func closedLoop() error {
	fmt.Println("Closed-loop hover-square mission (Section VI-E roadmap)")
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Estimator\tCompleted\tPath RMS (m)\tAtt RMS (°)\tOps/step\tmJ/mission M4\tmJ M33\tduty M4")
	for _, est := range []sim.Estimator{sim.TruthState, sim.MadgwickIMU} {
		m := sim.HoverMission()
		res := sim.RunClosedLoop(est, m)
		fmt.Fprintf(tw, "%s\t%v\t%.4f\t%.2f\t%d\t%.2f\t%.2f\t%.1f%%\n",
			est, res.Completed, res.PathErrRMS, res.AttitudeErrRMS,
			res.CountsPerStep.Total(),
			res.MissionEnergyJ["M4"]*1e3, res.MissionEnergyJ["M33"]*1e3,
			res.DutyFactor["M4"]*100)
	}
	return tw.Flush()
}

// resolveSweepArchs loads any -boards files and resolves the -archs
// query into the sweep's board selection: the Table IV set by default,
// and with -boards but no -archs the loaded customs ride alongside it
// so a bare `sweep -boards custom.json` characterizes them too.
func resolveSweepArchs(boardFiles, query string) ([]mcu.Arch, error) {
	loaded, err := mcu.LoadFiles(boardFiles)
	if err != nil {
		return nil, err
	}
	if query != "" {
		return mcu.ResolveArchs(query)
	}
	return append(mcu.TableIVSet(), loaded...), nil
}

// sweep runs the full characterization. -boards/-archs swap the default
// Table IV cores for a user-defined board selection; -json swaps the
// human tables on stdout for the versioned JSON export; -trace
// additionally writes a Chrome trace_event file of the run; -progress
// keeps a live status line on stderr (never stdout, so piped output
// stays clean).
//
// Failure handling (DESIGN.md §12): a kernel that panics, errors, or
// trips the -celltimeout watchdog costs only its own cells — the sweep
// completes, the failures are summarized on stderr, the JSON export
// carries a failures block with partial:true, and the exit code is
// non-zero. SIGINT cancels the sweep and still flushes the partial
// tables/JSON/trace.
func sweep(args []string) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	j := fs.Int("j", 0, "characterization worker goroutines (0 = GOMAXPROCS)")
	boardFiles := fs.String("boards", "", "comma-separated board files to load before the sweep")
	archsQ := fs.String("archs", "", "board selection: a set name or comma-separated board names")
	jsonOut := fs.Bool("json", false, "emit the versioned JSON export instead of tables")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON file of the sweep")
	progress := fs.Bool("progress", false, "live progress line on stderr")
	cellTimeout := fs.Duration("celltimeout", 0, "per-cell watchdog: abandon any cell that takes longer (0 = off)")
	cacheDir := fs.String("cachedir", "", "persistent per-cell result cache directory (created if missing)")
	backendName := fs.String("backend", "", "measurement backend for the cells (sim, trace, or a registered name; default sim)")
	traceFile := fs.String("tracefile", "", "trace-capture CSV replayed by the trace backend (implies -backend trace)")
	shardSpec := fs.String("shard", "", "sweep every N-th kernel starting at I (\"I/N\") and emit a shard bundle; requires -json")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to FILE")
	memProf := fs.String("memprofile", "", "write a pprof heap profile after the sweep to FILE")
	if err := fs.Parse(reorderArgs(fs, args)); err != nil {
		return err
	}
	archs, err := resolveSweepArchs(*boardFiles, *archsQ)
	if err != nil {
		return err
	}
	be, err := harness.ResolveBackend(*backendName, *traceFile)
	if err != nil {
		return err
	}

	// SIGINT cancels the sweep context: in-flight cells finish (or are
	// abandoned, when the watchdog is armed), the rest are skipped, and
	// the partial result still flushes below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Host-side pprof hooks (docs/observability.md): the CPU profile
	// covers the whole sweep; the heap profile snapshots after the run,
	// post-GC, like go test's -memprofile.
	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("cpuprofile: %w", cerr))
			}
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			if merr := writeMemProfile(path); merr != nil {
				err = errors.Join(err, fmt.Errorf("memprofile: %w", merr))
			}
		}()
	}

	opts := core.SweepOptions{
		Workers:     *j,
		CellTimeout: *cellTimeout,
		Context:     ctx,
		Backend:     be,
	}
	if *cacheDir != "" {
		cc, cerr := report.OpenCellCache(*cacheDir)
		if cerr != nil {
			return cerr
		}
		opts.CellCache = cc
	}
	var shard, of int
	if *shardSpec != "" {
		if !*jsonOut {
			return errors.New("-shard emits a machine-readable bundle and requires -json")
		}
		shard, of, err = parseShard(*shardSpec)
		if err != nil {
			return err
		}
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr, "sweep")
		opts.Progress = prog.Update
	}
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder()
		opts.Context = obs.WithRecorder(ctx, rec)
	}
	// A shard run sweeps its kernels and writes a bundle; any failure
	// aborts it with no bundle, so merge inputs are healthy.
	var c report.Characterization
	var sr report.ShardReport
	if of > 0 {
		sr, err = report.RunShard(core.Suite(), archs, shard, of, opts)
	} else {
		c, err = report.RunSweepQuery(core.Suite(), archs, opts)
	}
	if prog != nil {
		prog.Done()
	}
	if *tracePath != "" {
		if terr := writeTrace(*tracePath, rec); terr != nil && err == nil {
			err = terr
		}
	}
	if of > 0 {
		if err != nil {
			return err
		}
		return report.WriteShardReport(os.Stdout, sr)
	}
	if err != nil && len(c.Records) == 0 {
		return err // nothing assembled — a plain failure, not a partial run
	}
	// Flush whatever the sweep assembled — the full dataset on a clean
	// run, the healthy subset on a partial one — then summarize failures.
	if *jsonOut {
		if werr := c.WriteJSON(os.Stdout); werr != nil {
			return werr
		}
	} else {
		c.WriteTable3(os.Stdout)
		fmt.Println()
		c.WriteTable4(os.Stdout)
		fmt.Printf("\nTotal measured datapoints: %d (paper: >400)\n", c.Datapoints())
	}
	if err != nil {
		return sweepFailureSummary(os.Stderr, c, err)
	}
	return nil
}

// traceExport writes one kernel's synthesized capture — cache on and
// cache off — as a trace-capture CSV, the file format the trace backend
// replays. It doubles as the reference producer for lab captures: match
// its header and per-cell meta row and `sweep -backend trace` ingests
// real measurements the same way.
func traceExport(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	arch := fs.String("arch", "M4", "target core: M0+, M4, M33, M7, or a custom board")
	boards := fs.String("boards", "", "comma-separated board files to load before resolving -arch")
	out := fs.String("o", "", "write the capture CSV to FILE instead of stdout")
	if err := fs.Parse(reorderArgs(fs, args)); err != nil {
		return err
	}
	if _, err := mcu.LoadFiles(*boards); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("trace needs a kernel name")
	}
	captures, err := ento.SynthesizeCaptures(fs.Arg(0), *arch)
	if err != nil {
		return err
	}
	return writeOutput(*out, func(w io.Writer) error {
		return harness.WriteTraceCSV(w, captures)
	})
}

// sweepFailureSummary prints every failed/skipped cell to w and returns
// the compact error the exit path reports (the partial output above
// already flushed; the aggregate join with per-cell detail would drown
// the terminal).
func sweepFailureSummary(w io.Writer, c report.Characterization, err error) error {
	failures := c.Failures()
	var failed, skipped int
	for _, f := range failures {
		if f.Status == core.CellSkipped {
			skipped++
		} else {
			failed++
		}
		fmt.Fprintf(w, "entobench: cell lost: %v\n", &f)
	}
	if errors.Is(err, context.Canceled) {
		return fmt.Errorf("sweep interrupted: partial results flushed (%d cells failed, %d skipped)", failed, skipped)
	}
	return fmt.Errorf("sweep completed with %d failed and %d skipped cell(s); partial results flushed", failed, skipped)
}

// parseShard parses an "I/N" partition slot.
func parseShard(s string) (index, count int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if ok {
		i, err1 := strconv.Atoi(a)
		n, err2 := strconv.Atoi(b)
		if err1 == nil && err2 == nil && 1 <= i && i <= n {
			return i, n, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid -shard %q (want I/N with 1 <= I <= N)", s)
}

// merge joins shard bundles (entobench sweep -shard I/N -json) into the
// single v1 JSON report a one-process sweep of the same query would
// have produced, byte for byte. The bundles must form a complete
// partition of one sweep; anything stale, duplicated, missing, or
// edited is an error.
func merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "", "write the merged report to FILE instead of stdout")
	if err := fs.Parse(reorderArgs(fs, args)); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return errors.New("merge needs at least one shard bundle file")
	}
	shards := make([]report.ShardReport, 0, fs.NArg())
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sr, err := report.ReadShardReport(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		shards = append(shards, sr)
	}
	c, err := report.MergeShards(shards)
	if err != nil {
		return err
	}
	return writeOutput(*out, c.WriteJSON)
}

// writeOutput writes what write produces to the file at path, or to
// stdout when path is empty. The file is written whole by os.WriteFile,
// so a failed create, write or close is the command's error.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeMemProfile forces a GC so the heap profile reflects live memory,
// then writes it to path.
func writeMemProfile(path string) error {
	runtime.GC()
	return writeOutput(path, pprof.WriteHeapProfile)
}

// writeTrace saves the sweep's recorded spans as a chrome://tracing
// loadable file.
func writeTrace(path string, rec *obs.Recorder) error {
	if err := writeOutput(path, rec.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(rec.Spans()), path)
	return nil
}
