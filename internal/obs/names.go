package obs

// Canonical span and counter names. This file is the single source of
// truth for the observable surface: NewCounter refuses names missing
// from AllCounters, and the docs-sync test asserts that
// docs/observability.md documents exactly these names.

// Span names emitted by the sweep engine.
const (
	// SpanSweep covers one whole (*core.ExecTable).Characterize call —
	// the sweep body of CharacterizeSuiteOpts and report.Engine.Sweep —
	// on the coordinator goroutine (tid 0), from job construction to
	// record assembly. Its arguments are kernels, jobs, workers, failed
	// and skipped.
	SpanSweep = "sweep"
	// SpanSweepStatic is one per-kernel static-proxy job.
	SpanSweepStatic = "sweep.static"
	// SpanSweepCell is one (kernel, arch, cache) measurement cell.
	SpanSweepCell = "sweep.cell"
)

// Counter names.
const (
	// CounterSweepCacheHit counts queries served from a completed entry
	// of a keyed sweep cache (report.Engine.Sweep: ento.Sweep and the
	// CLIs on the default engine, every entobenchd sweep request on its
	// server's engine), summed over engines.
	CounterSweepCacheHit = "sweep.cache.hit"
	// CounterSweepCacheMiss counts queries the memo had no completed
	// entry for, each of which ran its own sweep.
	CounterSweepCacheMiss = "sweep.cache.miss"
	// CounterSweepCacheCoalesced counts kernel executions (prepares and
	// static-proxy runs) a sweep job joined in flight or was served from
	// the kernel-execution table (core.ExecTable) instead of running.
	CounterSweepCacheCoalesced = "sweep.cache.coalesced"
	// CounterSweepCacheEvicted counts completed cache entries dropped,
	// least recently hit first, by an engine's capacity bound
	// (server.Options.MemoCapacity, entobenchd -cachecap).
	CounterSweepCacheEvicted = "sweep.cache.evicted"
	// CounterSweepCacheRendered counts v1 exports rendered
	// (report.Characterization.V1): once per memo entry however many
	// hits read it, and once per call for a characterization off the
	// memo (a partial sweep, merged shards).
	CounterSweepCacheRendered = "sweep.cache.rendered"
	// CounterServerRequests counts HTTP requests the entobenchd handler
	// served, across all routes.
	CounterServerRequests = "server.requests"
	// CounterServerSSEClients counts SSE progress streams opened
	// (GET /v1/sweep/{id}/events).
	CounterServerSSEClients = "server.sse_clients"
	// CounterServerShedTotal counts sweep requests the admission
	// controller refused under load: synchronous submissions answered
	// 429 and queued async jobs evicted to make room (answered 503 on
	// poll). Every shed carries Retry-After (docs/server.md).
	CounterServerShedTotal = "server.shed_total"
	// CounterServerQueueDepth is gauge-valued: the current number of
	// admitted-but-waiting async sweep jobs in the bounded admission
	// queue (incremented on enqueue, decremented on dispatch or
	// eviction). Exported as a Prometheus gauge.
	CounterServerQueueDepth = "server.queue_depth"
	// CounterProfileSessions counts goroutine-scoped profiling sessions
	// created (profile.ensureSession): one per outermost profiled
	// Collect.
	CounterProfileSessions = "profile.sessions.created"
	// CounterHarnessRuns counts measurements: every MeasureOn or
	// MeasureOnBackend call, one per harness.Run and per computed cell.
	CounterHarnessRuns = "harness.runs"
	// CounterHarnessHostReps counts kernel Solve invocations the host
	// actually executed inside ROIs: one profiled ROI Solve per executed
	// prepare (the analytically scaled reps are not executed and not
	// counted).
	CounterHarnessHostReps = "harness.reps.host"
	// CounterSweepCellsFailed counts sweep jobs that ended in any error:
	// plain failures, recovered panics, and watchdog timeouts.
	CounterSweepCellsFailed = "sweep.cells_failed"
	// CounterSweepPanicsRecovered counts kernel panics the sweep
	// recovered and converted into per-cell errors.
	CounterSweepPanicsRecovered = "sweep.panics_recovered"
	// CounterSweepCellsTimedOut counts jobs abandoned by the per-cell
	// watchdog (SweepOptions.CellTimeout).
	CounterSweepCellsTimedOut = "sweep.cells_timed_out"
	// CounterSweepCellsCached counts sweep jobs served from the
	// persistent cell cache (SweepOptions.CellCache) instead of being
	// computed.
	CounterSweepCellsCached = "sweep.cells_cached"
	// CounterSweepCellsComputed counts sweep jobs the engine actually
	// executed — everything not loaded from the cell cache and not
	// skipped, including jobs that then failed.
	CounterSweepCellsComputed = "sweep.cells_computed"
	// CounterCellstoreCorruptDiscarded counts on-disk cell records the
	// store discarded on read because they failed an integrity check
	// (truncation, bit flips, wrong version); each discard heals into a
	// recompute, never an error.
	CounterCellstoreCorruptDiscarded = "cellstore.corrupt_discarded"
	// CounterCellstoreGCEvicted counts on-disk cell records the
	// byte-size quota's LRU garbage collector removed
	// (cellstore.Store.SetQuota / entobenchd -cachequota).
	CounterCellstoreGCEvicted = "cellstore.gc_evicted"
	// CounterCellstoreDegraded counts transitions of a cell store into
	// read-only degraded mode after a persistent write failure (disk
	// full, dead directory). A degraded store keeps serving warm cells
	// and probes its way back to writable; /healthz surfaces the state.
	CounterCellstoreDegraded = "cellstore.degraded"
)

// AllSpans is every span name the repo can emit, in docs order.
var AllSpans = []string{SpanSweep, SpanSweepStatic, SpanSweepCell}

// AllCounters is every counter name the repo can register, in docs
// order.
var AllCounters = []string{
	CounterSweepCacheHit,
	CounterSweepCacheMiss,
	CounterSweepCacheCoalesced,
	CounterSweepCacheEvicted,
	CounterSweepCacheRendered,
	CounterSweepCellsFailed,
	CounterSweepPanicsRecovered,
	CounterSweepCellsTimedOut,
	CounterSweepCellsCached,
	CounterSweepCellsComputed,
	CounterCellstoreCorruptDiscarded,
	CounterCellstoreGCEvicted,
	CounterCellstoreDegraded,
	CounterProfileSessions,
	CounterHarnessRuns,
	CounterHarnessHostReps,
	CounterServerRequests,
	CounterServerSSEClients,
	CounterServerShedTotal,
	CounterServerQueueDepth,
}

func knownCounterName(name string) bool {
	for _, n := range AllCounters {
		if n == name {
			return true
		}
	}
	return false
}
