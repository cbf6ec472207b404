package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
)

// Sweep submission and retrieval. Every POST /v1/sweep creates a job —
// a server-side handle with an id, live progress, and (when done) the
// rendered v1 JSON report. Each job runs its own sweep through the
// server's report.Engine on its own context and progress hook; repeated
// queries are served from the engine's memo, and concurrent or
// overlapping queries share kernel executions through its execution
// table, so ten jobs for identical queries execute each kernel once.

// SweepRequest is the POST /v1/sweep body. The zero value (or an empty
// body) requests the canonical full-suite default-board sweep — the
// exact query `entobench sweep -json` runs, with byte-identical output.
type SweepRequest struct {
	// Kernels names the kernels to characterize; empty means the full
	// suite in Table III order. Unknown names are a 400; a repeated name
	// counts once.
	Kernels []string `json:"kernels,omitempty"`
	// Archs is a board-selection query resolved exactly like the CLI's
	// -archs flag: comma-separated set names and board names, resolved
	// case-insensitively. Empty means the default Table IV set.
	Archs string `json:"archs,omitempty"`
	// Workers overrides the server's sweep worker-pool size for a
	// cache-filling run; 0 keeps the server default. Never changes
	// result bytes.
	Workers int `json:"workers,omitempty"`
	// CellTimeoutMS overrides the server's per-cell watchdog in
	// milliseconds; 0 keeps the server default.
	CellTimeoutMS int `json:"cell_timeout_ms,omitempty"`
	// DeadlineMS bounds the whole sweep in milliseconds: the request's
	// context expires after this long, canceling any cells still
	// unfinished (the PR 5 cancellation plumbing), and a sweep that
	// produced nothing by then answers 504. 0 means no client deadline;
	// the server's -maxdeadline caps the value and applies as the
	// default when it is set.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Backend selects the measurement backend for this sweep by
	// registry name; empty keeps the server default (classic simulator
	// unless the daemon was started with -backend/-tracefile). "sim"
	// explicitly restores the classic path; unknown names are a 400.
	// Cells a partial backend covers carry source "measured" in the
	// report, the rest fall back to the simulator (docs/backends.md).
	Backend string `json:"backend,omitempty"`
	// Async, when true, returns 202 with the job id immediately
	// instead of blocking; poll /v1/sweep/{id} or stream
	// /v1/sweep/{id}/events.
	Async bool `json:"async,omitempty"`
}

// SweepAccepted is the 202 response to an async submission.
type SweepAccepted struct {
	ID     string `json:"id"`
	Result string `json:"result"`
	Events string `json:"events"`
}

// SweepStatus is the GET /v1/sweep/{id} body while the sweep is still
// running (202) or after it failed outright (500).
type SweepStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Done    int    `json:"done"`
	Skipped int    `json:"skipped"`
	Total   int    `json:"total"`
	Error   string `json:"error,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued" // async job admitted but waiting for capacity
	StateRunning = "running"
	StateDone    = "done"   // report available; may carry a failures block
	StateFailed  = "failed" // no report assembled at all
	StateShed    = "shed"   // async job evicted from the admission queue under load
)

// SweepIDHeader carries the job id on synchronous sweep responses, so
// a client that POSTed synchronously can still attach an SSE watcher
// from another connection or correlate server logs.
const SweepIDHeader = "Ento-Sweep-Id"

// progressEvent is one progress observation, SSE-rendered as the
// `progress` event data.
type progressEvent struct {
	Done    int `json:"done"`
	Skipped int `json:"skipped"`
	Total   int `json:"total"`
}

// job is one submitted sweep: identity, monotone progress, and the
// outcome.
type job struct {
	id string

	mu      sync.Mutex
	state   string
	prog    progressEvent
	changed chan struct{} // closed by the next update; nil while nobody watches

	doneCh      chan struct{} // closed on completion (done, failed, or shed)
	body        []byte        // rendered v1 JSON report (StateDone)
	errMsg      string        // failure message (StateFailed / StateShed)
	partial     bool
	datapoints  int
	deadlineHit bool // sweep died of deadline_ms with nothing to report
}

// update is the job's SweepOptions.Progress hook. The sweep engine
// reports from pool workers concurrently, so observations can arrive
// out of order; update keeps the snapshot monotone (an SSE client never
// sees progress go backwards) and wakes its watchers without ever
// blocking the sweep — each watcher reads the latest snapshot when it
// is ready, so a slow client just skips intermediate ones.
func (j *job) update(done, skipped, total int) {
	ev := progressEvent{Done: done, Skipped: skipped, Total: total}
	j.mu.Lock()
	if ev.Done+ev.Skipped >= j.prog.Done+j.prog.Skipped {
		j.prog = ev
		if j.changed != nil {
			close(j.changed)
			j.changed = nil
		}
	}
	j.mu.Unlock()
}

// watch returns the current progress snapshot and a channel the next
// update closes. The channel is made only when someone watches, so an
// unwatched job allocates nothing.
func (j *job) watch() (progressEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.prog, j.changed
}

// setState transitions the job (queued → running on dispatch).
func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// wasDeadline reports whether the job failed because its deadline
// elapsed before any result was assembled.
func (j *job) wasDeadline() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadlineHit
}

// finish publishes the outcome and wakes every waiter. A sweep that
// assembled records — even partially — is StateDone with the rendered
// report; only a sweep with nothing to report (bad request raced a
// registry change, cancellation before any cell) is StateFailed.
func (j *job) finish(body []byte, datapoints int, partial bool, errMsg string) {
	j.mu.Lock()
	if errMsg != "" && body == nil {
		j.state = StateFailed
		j.errMsg = errMsg
	} else {
		j.state = StateDone
		j.body = body
		j.datapoints = datapoints
		j.partial = partial
	}
	j.mu.Unlock()
	close(j.doneCh)
}

// finishShed terminates a queued job evicted by the admission
// controller: it never ran, and polls answer 503 with Retry-After.
func (j *job) finishShed() {
	j.mu.Lock()
	j.state = StateShed
	j.errMsg = "evicted from the admission queue under load"
	j.mu.Unlock()
	close(j.doneCh)
}

// status snapshots the job for the status body.
func (j *job) status() SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return SweepStatus{
		ID: j.id, State: j.state,
		Done: j.prog.Done, Skipped: j.prog.Skipped, Total: j.prog.Total,
		Error: j.errMsg,
	}
}

// jobTable is the id → job registry. Finished jobs are retained (for
// result polling and late SSE attaches) up to the configured cap, then
// evicted oldest-first; running jobs are never evicted. Retention is a
// fixed-size ring buffer, so retiring a job is O(1) however large the
// cap — the old slice-shift implementation cost O(n) per eviction.
type jobTable struct {
	mu    sync.Mutex
	m     map[string]*job
	ring  []string // circular buffer of finished ids, oldest at head
	head  int      // next write position
	count int      // occupied slots
	next  int
}

// DefaultMaxFinishedJobs is the default bound on completed job handles
// the table keeps (entobenchd -maxjobs). The handles hold rendered
// reports (a memo hit's is its entry's shared bytes, a partial
// sweep's its own), so this bound (together with the sweep cache
// capacity) is what keeps a long-running server's memory flat.
const DefaultMaxFinishedJobs = 128

func (t *jobTable) init(maxFinished int) {
	if maxFinished <= 0 {
		maxFinished = DefaultMaxFinishedJobs
	}
	t.m = make(map[string]*job)
	t.ring = make([]string, maxFinished)
}

// create mints a new job in the given initial state (StateRunning for
// sync submissions, StateQueued for async ones awaiting dispatch).
func (t *jobTable) create(state string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	j := &job{
		id:     fmt.Sprintf("s%d", t.next),
		state:  state,
		doneCh: make(chan struct{}),
	}
	t.m[j.id] = j
	return j
}

// lookup resolves a job id.
func (t *jobTable) lookup(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[id]
	return j, ok
}

// drop removes a job outright — only for handles whose id was never
// disclosed to any client (an async submission refused at admission).
func (t *jobTable) drop(id string) {
	t.mu.Lock()
	delete(t.m, id)
	t.mu.Unlock()
}

// retire records a finished job for bounded retention: the ring slot
// it claims evicts whatever finished job held it before.
func (t *jobTable) retire(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == len(t.ring) {
		delete(t.m, t.ring[t.head])
	} else {
		t.count++
	}
	t.ring[t.head] = id
	t.head = (t.head + 1) % len(t.ring)
}

// decodeSweep decodes a POST /v1/sweep body; an empty body is the zero
// request. Unknown fields are refused, so a misspelled field is a 400
// instead of a silently different sweep, and so is anything but
// whitespace after the request object.
func decodeSweep(body io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if errors.Is(err, io.EOF) {
			return req, nil
		}
		return SweepRequest{}, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return SweepRequest{}, errors.New("trailing data after the request object")
	}
	return req, nil
}

// resolveSweep turns a request into the kernel and board selections,
// reporting the first unresolvable name. Repeated kernels are dropped
// in first-appearance order, as mcu.ResolveArchs drops repeated boards.
func resolveSweep(req SweepRequest) ([]core.Spec, []mcu.Arch, error) {
	var specs []core.Spec
	if len(req.Kernels) == 0 {
		specs = core.Suite()
	} else {
		seen := make(map[string]bool, len(req.Kernels))
		for _, name := range req.Kernels {
			sp, ok := core.ByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown kernel %q", name)
			}
			if !seen[sp.Name] {
				seen[sp.Name] = true
				specs = append(specs, sp)
			}
		}
	}
	archs, err := mcu.ResolveArchs(req.Archs)
	if err != nil {
		return nil, nil, err
	}
	return specs, archs, nil
}

// validateSweep rejects out-of-range numeric wire fields with a
// field-naming 400 body. 0 is indistinguishable from absent on
// omitempty fields, so 0 keeps the server default and only negative
// values are refused.
func validateSweep(w http.ResponseWriter, req SweepRequest) bool {
	switch {
	case req.Workers < 0:
		writeFieldError(w, "workers", "workers must be positive (got %d); omit it to keep the server default", req.Workers)
	case req.CellTimeoutMS < 0:
		writeFieldError(w, "cell_timeout_ms", "cell_timeout_ms must be positive (got %d); omit it to keep the server default", req.CellTimeoutMS)
	case req.DeadlineMS < 0:
		writeFieldError(w, "deadline_ms", "deadline_ms must be positive (got %d); omit it for no client deadline", req.DeadlineMS)
	default:
		return true
	}
	return false
}

// sweepDeadline resolves the effective deadline: the request's
// deadline_ms capped by -maxdeadline, which also applies as the
// default when the request carries none. 0 means unbounded.
func (s *Server) sweepDeadline(req SweepRequest) time.Duration {
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if s.opts.MaxDeadline > 0 && (d == 0 || d > s.opts.MaxDeadline) {
		d = s.opts.MaxDeadline
	}
	return d
}

// handleSweep is POST /v1/sweep: decode, validate, resolve, pass
// admission, run through the server's engine, respond. Synchronous
// requests block until the report is ready and stream nothing; async
// requests return 202 immediately and are watched via /v1/sweep/{id}
// and its /events stream. Requests weighing 0 (report.Engine.Weight)
// bypass admission — only kernels that still need executing consume
// the in-flight budget.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSweep(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse sweep request: %v", err)
		return
	}
	if !validateSweep(w, req) {
		return
	}
	specs, archs, err := resolveSweep(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := core.SweepOptions{Workers: s.opts.Workers, CellTimeout: s.opts.CellTimeout, CellCache: s.opts.CellCache}
	if req.Workers > 0 {
		opts.Workers = req.Workers
	}
	if req.CellTimeoutMS > 0 {
		opts.CellTimeout = time.Duration(req.CellTimeoutMS) * time.Millisecond
	}
	be := s.opts.Backend
	if req.Backend != "" {
		named, ok := harness.BackendByName(req.Backend)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown backend %q (registered: %s)",
				req.Backend, strings.Join(harness.BackendNames(), ", "))
			return
		}
		be = named
	}
	q := report.NewQuery(specs, archs, be)
	deadline := s.sweepDeadline(req)
	// The weight is advisory: an entry evicted between weighing and
	// running just makes this one an unadmitted sweep.
	weight := s.engine.Weight(q)

	if req.Async {
		s.handleSweepAsync(w, q, opts, deadline, weight)
		return
	}
	if !s.adm.tryAcquire(weight) {
		ctrShed.Inc()
		s.writeShed(w, http.StatusTooManyRequests,
			"server at capacity: sweep weight %d exceeds the available in-flight budget", weight)
		return
	}
	// Synchronous: the request context rides the cancellation plumbing.
	// A disconnected client cancels only its own sweep; kernel
	// executions it led are retried by any other sweep waiting on them.
	// The resolved deadline bounds the whole request.
	j := s.jobs.create(StateRunning)
	s.runJob(r.Context(), j, q, opts, deadline, weight)
	st := j.status()
	if st.State == StateFailed {
		if j.wasDeadline() {
			writeJSON(w, http.StatusGatewayTimeout, ErrorBody{
				Error: fmt.Sprintf("sweep %s: deadline of %v elapsed before any result", j.id, deadline),
				Code:  ErrCodeDeadlineExceeded,
			})
			return
		}
		writeError(w, http.StatusInternalServerError, "sweep %s: %s", j.id, st.Error)
		return
	}
	w.Header().Set(SweepIDHeader, j.id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.body)
}

// handleSweepAsync admits, queues, or sheds an async submission. Async
// jobs are owned by the server, not the submitting connection: once
// dispatched they run on a background context (bounded only by the
// resolved deadline) and complete whether or not the submitter sticks
// around to watch.
func (s *Server) handleSweepAsync(w http.ResponseWriter, q report.Query, opts core.SweepOptions, deadline time.Duration, weight int) {
	j := s.jobs.create(StateQueued)
	startJob := func() {
		j.setState(StateRunning)
		s.runJob(context.Background(), j, q, opts, deadline, weight)
	}
	accepted := SweepAccepted{
		ID:     j.id,
		Result: "/v1/sweep/" + j.id,
		Events: "/v1/sweep/" + j.id + "/events",
	}
	queued := &queuedSweep{
		weight: weight,
		start:  startJob,
		shed: func() {
			ctrShed.Inc()
			j.finishShed()
			s.jobs.retire(j.id)
			s.logf("sweep %s: shed (evicted from admission queue)", j.id)
		},
	}
	if !s.adm.submitAsync(queued) {
		// No queue configured and no capacity: refuse outright. The job
		// id was never disclosed, so drop the handle entirely.
		s.jobs.drop(j.id)
		ctrShed.Inc()
		s.writeShed(w, http.StatusServiceUnavailable,
			"server at capacity and async queue disabled: sweep weight %d refused", weight)
		return
	}
	writeJSON(w, http.StatusAccepted, accepted)
}

// runJob executes one job through the server's engine under the
// resolved deadline, publishes its outcome, and returns its admission
// weight. A partial sweep — contained kernel failures, watchdog
// timeouts — still renders: the report carries the failures block and
// the job completes as done (HTTP 200), because a characterization
// with explicit gaps is a result, not a server error. A memo hit's
// body is its entry's v1 bytes, shared with every job that read it.
func (s *Server) runJob(ctx context.Context, j *job, q report.Query, opts core.SweepOptions, deadline time.Duration, weight int) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	defer func() { s.adm.release(weight, time.Since(start)) }()
	opts.Context = ctx
	opts.Progress = j.update
	c, err := s.engine.Sweep(q, opts)
	// A sweep whose context ended before any job completed has nothing
	// to report; the request context tells a deadline death apart from
	// a disconnect.
	if err != nil && (len(c.Records) == 0 || ctx.Err() != nil && c.Datapoints() == 0) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			j.mu.Lock()
			j.deadlineHit = true
			j.mu.Unlock()
		}
		s.logf("sweep %s: failed after %v: %v", j.id, time.Since(start).Round(time.Millisecond), err)
		j.finish(nil, 0, false, err.Error())
		s.jobs.retire(j.id)
		return
	}
	body, err := c.V1()
	if err != nil {
		j.finish(nil, 0, false, err.Error())
		s.jobs.retire(j.id)
		return
	}
	s.logf("sweep %s: %d datapoints in %v (partial=%v)",
		j.id, c.Datapoints(), time.Since(start).Round(time.Millisecond), c.Partial())
	j.finish(body, c.Datapoints(), c.Partial(), "")
	s.jobs.retire(j.id)
}

// handleSweepResult is GET /v1/sweep/{id}: the rendered report once
// done (200), the live status while queued or running (202), the
// failure after a total loss (500), a shed notice with Retry-After for
// a job evicted from the admission queue (503), or 404 for an unknown
// id.
func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep id %q", r.PathValue("id"))
		return
	}
	st := j.status()
	switch st.State {
	case StateShed:
		s.writeShed(w, http.StatusServiceUnavailable, "sweep %s: %s", j.id, st.Error)
	case StateDone:
		w.Header().Set(SweepIDHeader, j.id)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		j.mu.Lock()
		body := j.body
		j.mu.Unlock()
		_, _ = w.Write(body)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}
