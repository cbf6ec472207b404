// Command entobenchd serves characterization-as-a-service: a
// long-running HTTP daemon that answers sweep queries — the full suite
// × Table IV grid or any kernel-subset × board-set selection — to many
// concurrent clients, with an in-memory memo of completed results and
// one shared kernel-execution table behind them, so concurrent or
// overlapping queries execute each kernel once.
// A served sweep is byte-identical to `entobench sweep -json` for the
// same query; docs/server.md is the operations guide and the complete
// wire reference.
//
// Usage:
//
//	entobenchd [-addr 127.0.0.1:8090] [-boards FILE] [-j N]
//	           [-celltimeout DUR] [-cachecap N] [-cachedir DIR]
//	           [-cachequota BYTES] [-backend NAME] [-tracefile FILE]
//	           [-maxinflight N] [-maxqueue N] [-maxdeadline DUR]
//	           [-maxjobs N] [-draintimeout DUR]
//
// -boards loads user board files into the registry at startup, so the
// daemon can serve custom cores alongside the built-ins. -j and
// -celltimeout set the worker-pool size and per-cell watchdog for
// every cache-filling run (clients may override per request);
// -cachecap bounds how many completed sweep results stay in memory.
// -cachedir backs every cache-filling run with the persistent per-cell
// store, so a restarted daemon starts warm: the first query after a
// restart reloads its cells from disk instead of recomputing the grid
// (docs/server.md has the operational details), and -cachequota bounds
// that directory's total bytes with LRU garbage collection. -backend
// sets the default measurement backend for every served sweep and
// -tracefile loads a trace-capture CSV into the trace backend,
// registering it so requests can also select it by name
// (`"backend": "trace"`); clients override the default per request,
// and `"backend": "sim"` restores the classic simulator path
// (docs/backends.md).
//
// The overload controls (docs/server.md "Overload & degraded mode"):
// -maxinflight bounds the total weight of cache-filling sweeps running
// at once, -maxqueue bounds the admitted-but-waiting async job queue
// (oldest evicted on overflow), -maxdeadline caps — and defaults — the
// per-request `deadline_ms` sweep deadline, and -maxjobs bounds how
// many finished job handles stay pollable.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests get up to -draintimeout to finish, and only then does the
// process exit — a client mid-sweep sees its response, not a reset. If
// the drain deadline expires (a stuck sweep), the daemon logs it and
// force-closes the remaining connections rather than hanging forever.
//
// The flag table below (newFlagSet) is the single source of truth for
// the usage text, the README entobenchd section, and docs/server.md; a
// test keeps all of them in sync.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
	"repro/internal/server"
)

// config is the daemon's flag-settable configuration.
type config struct {
	addr         string
	boards       string
	workers      int
	cellTimeout  time.Duration
	cacheCap     int
	cacheDir     string
	cacheQuota   int64
	backend      string
	traceFile    string
	maxInflight  int
	maxQueue     int
	maxDeadline  time.Duration
	maxJobs      int
	drainTimeout time.Duration
}

// newFlagSet declares every daemon flag. This table is what the
// README/docs sync test walks, so a flag added here without
// documentation fails the build's test step.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("entobenchd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8090", "listen address (host:port)")
	fs.StringVar(&cfg.boards, "boards", "", "comma-separated board files to load into the registry at startup")
	fs.IntVar(&cfg.workers, "j", 0, "sweep worker goroutines per cache-filling run (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.cellTimeout, "celltimeout", 0, "per-cell watchdog for served sweeps: abandon any cell that takes longer (0 = off)")
	fs.IntVar(&cfg.cacheCap, "cachecap", report.DefaultSweepCacheCapacity, "completed sweep results retained in the in-memory cache")
	fs.StringVar(&cfg.cacheDir, "cachedir", "", "persistent per-cell result cache directory (created if missing); restarts start warm")
	fs.Int64Var(&cfg.cacheQuota, "cachequota", 0, "byte bound on the -cachedir directory; past it the least-recently-used cells are garbage-collected (0 = unbounded)")
	fs.StringVar(&cfg.backend, "backend", "", "default measurement backend for served sweeps (sim, trace, or a registered name; default sim)")
	fs.StringVar(&cfg.traceFile, "tracefile", "", "trace-capture CSV loaded into the trace backend at startup (implies -backend trace)")
	fs.IntVar(&cfg.maxInflight, "maxinflight", server.DefaultMaxInflight, "admission budget: total weight (measurement cells) of cache-filling sweeps running at once; over it synchronous sweeps shed with 429")
	fs.IntVar(&cfg.maxQueue, "maxqueue", server.DefaultMaxQueue, "bound on admitted-but-waiting async sweep jobs; on overflow the oldest queued job is evicted (503 on poll); -1 disables the queue")
	fs.DurationVar(&cfg.maxDeadline, "maxdeadline", 0, "cap on the per-request deadline_ms sweep deadline, applied as the default when a request carries none (0 = uncapped)")
	fs.IntVar(&cfg.maxJobs, "maxjobs", server.DefaultMaxFinishedJobs, "finished sweep job handles retained for polling and late SSE attaches, evicted oldest-first")
	fs.DurationVar(&cfg.drainTimeout, "draintimeout", 10*time.Second, "graceful-shutdown drain deadline: how long in-flight requests get to finish after SIGINT/SIGTERM before being force-closed")
	return fs
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "entobenchd:", err)
		os.Exit(1)
	}
}

// run is the daemon body: parse flags, load boards, bind the listener,
// announce readiness, serve until ctx cancels, then drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var cfg config
	fs := newFlagSet(&cfg)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := mcu.LoadFiles(cfg.boards); err != nil {
		return err
	}
	report.SetSweepCacheCapacity(cfg.cacheCap)

	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "entobenchd: "+format+"\n", a...)
	}
	opts := server.Options{
		Workers:         cfg.workers,
		CellTimeout:     cfg.cellTimeout,
		MaxInflight:     cfg.maxInflight,
		MaxQueue:        cfg.maxQueue,
		MaxDeadline:     cfg.maxDeadline,
		MaxFinishedJobs: cfg.maxJobs,
		Logf:            logf,
	}
	if cfg.cacheDir != "" {
		cc, err := report.OpenCellCacheQuota(cfg.cacheDir, cfg.cacheQuota)
		if err != nil {
			return err
		}
		opts.CellCache = cc
		if cfg.cacheQuota > 0 {
			logf("persistent cell cache at %s (quota %d bytes)", cc.Dir(), cfg.cacheQuota)
		} else {
			logf("persistent cell cache at %s", cc.Dir())
		}
	}
	be, err := harness.ResolveBackend(cfg.backend, cfg.traceFile)
	if err != nil {
		return err
	}
	// A trace backend loaded from -tracefile is also registered, so wire
	// requests can select it with "backend": "trace" even when it is not
	// the default.
	if cfg.traceFile != "" {
		if err := harness.RegisterBackend(be); err != nil {
			return err
		}
	}
	if be != nil {
		opts.Backend = be
		logf("default backend %s (source %s)", be.Name(), be.Source())
	}
	srv := server.New(opts)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Announce on stdout only once the listener is bound, so scripts
	// (and the CI smoke job) can wait for this line instead of polling.
	fmt.Fprintf(stdout, "entobenchd listening on http://%s\n", ln.Addr())

	// Graceful drain: context cancellation (SIGINT/SIGTERM) closes the
	// listener and gives in-flight requests -draintimeout to finish. A
	// stuck sweep cannot hang shutdown forever: when the drain deadline
	// expires the remaining connections are force-closed and the daemon
	// exits cleanly anyway — losing only the requests that were already
	// past saving.
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logf("shutting down, draining for up to %v", cfg.drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		err := httpSrv.Shutdown(drainCtx)
		if errors.Is(err, context.DeadlineExceeded) {
			logf("drain deadline %v expired; force-closing in-flight requests", cfg.drainTimeout)
			err = httpSrv.Close()
		}
		drained <- err
	}()

	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	logf("stopped")
	return nil
}
