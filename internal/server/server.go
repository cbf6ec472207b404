// Package server implements characterization-as-a-service: the HTTP
// handler behind cmd/entobenchd. It serves the full suite sweep — and
// arbitrary kernel-subset × board-set queries — to many concurrent
// clients over a small, fully documented wire surface (docs/server.md):
//
//	POST /v1/sweep                  run (or join, or serve cached) a sweep; v1 JSON report out
//	GET  /v1/sweep/{id}             result / status of a submitted sweep
//	GET  /v1/sweep/{id}/events      SSE progress stream of a sweep
//	GET  /v1/boards                 board registry introspection
//	GET  /v1/kernels                kernel registry introspection
//	GET  /healthz                   liveness probe
//	GET  /metrics                   obs counters, Prometheus text format
//
// The server is a thin shell over the same machinery the CLIs use: a
// sweep request resolves through the registries (internal/mcu,
// internal/core), runs through the server's own report.Engine —
// repeated queries are served from its memo, and every other request
// sweeps on its own context against its kernel-execution table, so
// concurrent or overlapping queries execute each kernel once — and
// renders through the deterministic v1 JSON encoder, which is what
// makes a served sweep byte-identical to `entobench sweep -json` for
// the same query. A disconnected client cancels only its own sweep; a
// kernel execution it was leading is led anew by any sweep still
// waiting on it, so one bad or abandoned query can never take down
// cells another client is waiting on.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// Server counters (docs/observability.md, docs/server.md).
var (
	ctrRequests   = obs.NewCounter(obs.CounterServerRequests)
	ctrSSEClients = obs.NewCounter(obs.CounterServerSSEClients)
)

// Options configures a Server. The zero value serves with GOMAXPROCS
// sweep workers and no per-cell watchdog.
type Options struct {
	// Workers is the sweep worker-pool size used for cache-filling
	// runs; <= 0 means GOMAXPROCS. The count never changes result
	// bytes.
	Workers int
	// CellTimeout, when positive, arms the per-cell watchdog on every
	// served sweep (core.SweepOptions.CellTimeout), so a hung custom
	// kernel costs its own cells, not the server.
	CellTimeout time.Duration
	// CellCache, when non-nil, backs every cache-filling run with the
	// persistent per-cell store (entobenchd -cachedir): cells computed
	// by any prior run — this process or an earlier one — load from
	// disk, so a restarted daemon answers its first query warm. Served
	// bytes are unchanged (loaded cells are byte-identical to
	// recomputation).
	CellCache core.CellCache
	// Backend, when non-nil, is the default measurement backend for
	// every served sweep (entobenchd -backend/-tracefile); nil serves
	// the classic simulator path. Requests override it with the
	// `backend` field — "sim" restores the classic path, any other name
	// resolves through the process backend registry.
	Backend harness.Backend
	// MaxInflight bounds the total weight (measurement cells) of
	// cache-filling sweeps running at once — the admission budget
	// (entobenchd -maxinflight); <= 0 means DefaultMaxInflight.
	// Requests weighing 0 (report.Engine.Weight) bypass the budget;
	// synchronous requests over it are shed with 429.
	MaxInflight int
	// MaxQueue bounds the admitted-but-waiting async job queue
	// (entobenchd -maxqueue); 0 means DefaultMaxQueue, negative means
	// no queue (over-budget async submissions are refused outright).
	// When the queue is full the oldest queued job is evicted and
	// answers 503 on poll.
	MaxQueue int
	// MaxDeadline caps — and, when a request carries no deadline_ms,
	// supplies — the per-request sweep deadline (entobenchd
	// -maxdeadline); 0 means no cap and no default.
	MaxDeadline time.Duration
	// MaxFinishedJobs bounds retained finished job handles (entobenchd
	// -maxjobs); <= 0 means DefaultMaxFinishedJobs.
	MaxFinishedJobs int
	// MemoCapacity bounds the completed sweeps the server's engine
	// retains (entobenchd -cachecap); <= 0 means
	// report.DefaultSweepCacheCapacity.
	MemoCapacity int
	// Logf, when non-nil, receives one line per completed sweep job
	// (Printf-style). Nil disables logging.
	Logf func(format string, args ...any)
}

// healthReporter is what a cell cache exposes to surface degraded mode
// on /healthz (report.PersistentCellCache implements it).
type healthReporter interface {
	Health() (ok bool, reasons []string)
}

// Server is the entobenchd HTTP handler state: the route mux, the
// sweep job table, the admission controller, and the sweep engine.
type Server struct {
	opts   Options
	mux    *http.ServeMux
	jobs   jobTable
	adm    *admission
	engine *report.Engine
}

// New builds a Server and registers its routes.
func New(opts Options) *Server {
	if opts.MaxQueue == 0 {
		opts.MaxQueue = DefaultMaxQueue
	} else if opts.MaxQueue < 0 {
		opts.MaxQueue = 0
	}
	s := &Server{opts: opts, mux: http.NewServeMux(), adm: newAdmission(opts.MaxInflight, opts.MaxQueue),
		engine: report.NewEngine(opts.MemoCapacity)}
	s.jobs.init(opts.MaxFinishedJobs)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/boards", s.handleBoards)
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/sweep/{id}", s.handleSweepResult)
	s.mux.HandleFunc("GET /v1/sweep/{id}/events", s.handleSweepEvents)
	return s
}

// Handler returns the root handler: the route mux wrapped with the
// request counter.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctrRequests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// logf logs one line when logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Route describes one wire endpoint — the metadata tools/checkdocs
// pins docs/server.md against.
type Route struct {
	Method  string
	Pattern string
	Summary string
}

// Routes lists every endpoint the server registers, in docs order.
// Adding a route here without documenting it in docs/server.md fails
// the checkdocs gate (and vice versa: New must register exactly these).
func Routes() []Route {
	return []Route{
		{"POST", "/v1/sweep", "run, join, or serve from cache a characterization sweep; v1 JSON report out"},
		{"GET", "/v1/sweep/{id}", "result (done) or status (running) of a submitted sweep"},
		{"GET", "/v1/sweep/{id}/events", "SSE progress stream of a sweep"},
		{"GET", "/v1/boards", "board registry: every registered core with provenance and model"},
		{"GET", "/v1/kernels", "kernel registry: every suite kernel with stage/category/dataset"},
		{"GET", "/healthz", "liveness probe"},
		{"GET", "/metrics", "obs counters in Prometheus text exposition format"},
	}
}

// ErrorBody is the JSON error envelope of every non-2xx response. The
// optional fields make refusals machine-readable: code classifies the
// refusal, field names the offending wire field on a validation 400,
// and retry_after_ms mirrors the Retry-After header on a shed.
type ErrorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	Field        string `json:"field,omitempty"`
	RetryAfterMS int    `json:"retry_after_ms,omitempty"`
}

// Error codes carried by ErrorBody.Code.
const (
	// ErrCodeBadRequest marks a validation refusal; ErrorBody.Field
	// names the offending wire field.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeOverloaded marks a load shed (429 synchronous refusal or
	// 503 evicted async job); Retry-After is always present.
	ErrCodeOverloaded = "overloaded"
	// ErrCodeDeadlineExceeded marks a sweep whose deadline_ms elapsed
	// before any cell completed (504).
	ErrCodeDeadlineExceeded = "deadline_exceeded"
)

// writeError sends the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// writeFieldError sends a validation 400 naming the offending field.
func writeFieldError(w http.ResponseWriter, field, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, ErrorBody{
		Error: fmt.Sprintf(format, args...),
		Code:  ErrCodeBadRequest,
		Field: field,
	})
}

// writeShed answers a shed request: Retry-After header plus the
// machine-readable body. Callers count server.shed_total at the moment
// of the shed decision, not here — a client polling an already-shed
// job repeats this response without being a new shed.
func (s *Server) writeShed(w http.ResponseWriter, status int, format string, args ...any) {
	ra := s.adm.retryAfter()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int((ra+time.Second-1)/time.Second)))
	writeJSON(w, status, ErrorBody{
		Error:        fmt.Sprintf(format, args...),
		Code:         ErrCodeOverloaded,
		RetryAfterMS: int(ra / time.Millisecond),
	})
}

// writeJSON sends v as indented JSON (the house encoding: deterministic
// struct-driven fields, two-space indent, trailing newline).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleHealthz is the liveness probe. A fully operational process
// answers exactly "ok"; a process serving in degraded mode (read-only
// cell store after persistent I/O failure) answers "degraded" followed
// by one "reason: ..." line per cause. Both are 200: a degraded daemon
// is alive and still serving — restarting it would only lose the warm
// cells it can still answer from.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if hr, ok := s.opts.CellCache.(healthReporter); ok {
		if healthy, reasons := hr.Health(); !healthy {
			fmt.Fprintln(w, "degraded")
			for _, reason := range reasons {
				fmt.Fprintln(w, "reason:", reason)
			}
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// Kernel is one row of the kernel-registry introspection response.
type Kernel struct {
	Name      string `json:"name"`
	Stage     string `json:"stage"`
	Category  string `json:"category"`
	Dataset   string `json:"dataset"`
	Precision string `json:"precision"`
	MinSRAMKB int    `json:"min_sram_kb,omitempty"`
	M7Only    bool   `json:"m7_only,omitempty"`
}

// handleKernels serves the suite registry: every kernel (curated plus
// registered), in Table III order.
func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request) {
	suite := core.Suite()
	out := struct {
		Kernels []Kernel `json:"kernels"`
	}{Kernels: make([]Kernel, 0, len(suite))}
	for _, sp := range suite {
		out.Kernels = append(out.Kernels, Kernel{
			Name:      sp.Name,
			Stage:     string(sp.Stage),
			Category:  sp.Category,
			Dataset:   sp.Dataset,
			Precision: sp.Prec.String(),
			MinSRAMKB: sp.MinSRAMKB,
			M7Only:    sp.M7Only,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleBoards serves the board registry in registration order, in the
// same shape as the JSON export's provenance block (report.JSONBoard).
func (s *Server) handleBoards(w http.ResponseWriter, _ *http.Request) {
	boards := mcu.All()
	out := struct {
		Boards []report.JSONBoard `json:"boards"`
	}{Boards: make([]report.JSONBoard, 0, len(boards))}
	for _, a := range boards {
		out.Boards = append(out.Boards, report.NewJSONBoard(a))
	}
	writeJSON(w, http.StatusOK, out)
}
