// Command perfbench is EntoBench-Go's end-to-end benchmark. It runs one
// of three workloads against the program's own packages, checks every
// operation's output bytes against a reference computed during set-up,
// and prints one JSON result line:
//
//	perfbench --workload cold-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run and writes
// a Chrome trace file. README.md in this directory describes the
// workloads, the metrics, and how to read the trace.
//
// The process is an orchestrator: it starts itself as a child once per
// set-up sample, so set-up time is always measured from a fresh process
// (dataset masters and registries are process-global memos), and once
// more for the measured run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is the number of fresh processes whose set-up time is
// measured per run: set-up-only probes plus the measured child itself.
const setupSamples = 5

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
	child    string // "", "probe" or "main"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and traces")
	flag.StringVar(&cfg.child, "child", "", "internal: run as a set-up probe or the measured child")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.child != "" {
		return childMain(cfg)
	}
	res, err := orchestrate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// orchestrate runs the set-up probes and the measured child and merges
// the set-up samples into setup_s.
func orchestrate(cfg config) (result, error) {
	var setups []float64
	if !cfg.trace {
		for i := 1; i < setupSamples; i++ {
			s, _, err := spawn(cfg, "probe")
			if err != nil {
				return result{}, err
			}
			setups = append(setups, s)
		}
	}
	s, res, err := spawn(cfg, "main")
	if err != nil {
		return result{}, err
	}
	if res == nil {
		return result{}, errors.New("measured child printed no result")
	}
	if !cfg.trace {
		setups = append(setups, s)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		sort.Float64s(setups)
		fmt.Fprintf(os.Stderr, "perfbench: %s setup_s samples %v\n", cfg.workload, setups)
	}
	return *res, nil
}

// spawn runs this binary as a child and returns its set-up time — from
// process start to the "ready" line it prints before its first timed
// operation — and, for the measured child, its result line.
func spawn(cfg config, mode string) (float64, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"--workdir", cfg.workDir, "--child", mode)
	cmd.Stderr = os.Stderr
	// A child must not outlive an orchestrator that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var setup float64
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && setup == 0 {
			setup = time.Since(start).Seconds()
			continue
		}
		last = line
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return 0, nil, scanErr
	}
	if setup == 0 {
		return 0, nil, fmt.Errorf("%s child never became ready", mode)
	}
	if mode != "main" {
		return setup, nil, nil
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return 0, nil, fmt.Errorf("main child result: %w", err)
	}
	return setup, &res, nil
}

// readyLine is what a child prints when its set-up is done.
const readyLine = "perfbench-ready"

// childMain sets the workload up and, unless it is only a set-up
// probe, measures it and prints the result line.
func childMain(cfg config) int {
	w := workloads[cfg.workload]()
	b := &bench{cfg: cfg}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := w.setup(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", cfg.workload, err)
		w.close()
		return 1
	}
	fmt.Println(readyLine)
	if cfg.child == "probe" {
		w.close()
		return 0
	}
	var res result
	var err error
	if cfg.trace {
		res, err = w.traced(b)
	} else {
		res, err = w.measure(b)
	}
	w.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
