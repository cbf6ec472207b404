package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Weighted admission control for the sweep path (docs/server.md
// "Overload & degraded mode"). Every sweep request carries a weight —
// report.Engine.Weight: the sweep-engine job count of the kernels
// whose executions are neither retained nor in flight, a direct proxy
// for the compute it will pin — and must acquire that weight from a
// global in-flight budget before running. A request weighing 0 (a memo
// hit, or every kernel already executed or executing) always fits: it
// is nearly free, so shedding it would only throw away work the server
// has already paid for. Synchronous submissions that do not fit are
// refused on the spot with 429; asynchronous submissions park in a
// bounded FIFO queue and the oldest queued job is evicted (answered 503
// on poll) when the queue overflows. Both sheds carry Retry-After and a
// machine-readable error body, and both count on server.shed_total.

// Admission counters (docs/observability.md): sheds are monotone,
// queue depth is gauge-valued (see obs.Counter.Dec).
var (
	ctrShed       = obs.NewCounter(obs.CounterServerShedTotal)
	ctrQueueDepth = obs.NewCounter(obs.CounterServerQueueDepth)
)

// DefaultMaxInflight is the default in-flight sweep budget in weight
// units (measurement cells). The full-suite default-board sweep weighs
// a few hundred units, so the default admits a handful of distinct
// full-grid sweeps — or many small ones — before shedding.
const DefaultMaxInflight = 2048

// DefaultMaxQueue is the default bound on admitted-but-waiting async
// sweep jobs.
const DefaultMaxQueue = 64

// retryAfterMin/Max clamp the Retry-After estimate.
const (
	retryAfterMin = 1 * time.Second
	retryAfterMax = 60 * time.Second
)

// queuedSweep is one async job parked in the admission queue: its
// weight, the closure that runs it once dispatched, and the closure
// that sheds it if it is evicted first.
type queuedSweep struct {
	weight int
	start  func()
	shed   func()
}

// admission is the global controller: an in-flight weight budget plus
// the bounded async queue, one per Server.
type admission struct {
	mu       sync.Mutex
	capacity int
	maxQueue int
	inflight int
	queue    []*queuedSweep

	// ewma tracks recent sweep wall time (nanoseconds) to size
	// Retry-After: a shed client should come back roughly when the work
	// ahead of it has drained.
	ewma atomic.Int64
}

func newAdmission(capacity, maxQueue int) *admission {
	if capacity <= 0 {
		capacity = DefaultMaxInflight
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{capacity: capacity, maxQueue: maxQueue}
}

// fitsLocked reports whether weight can start now. Weight 0 always
// fits, and an idle controller always admits — a single query heavier
// than the whole budget must run eventually, not be refused forever.
func (a *admission) fitsLocked(weight int) bool {
	return weight == 0 || a.inflight == 0 || a.inflight+weight <= a.capacity
}

// tryAcquire claims weight for a synchronous sweep; the caller must
// release() it when the sweep returns.
func (a *admission) tryAcquire(weight int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.fitsLocked(weight) {
		return false
	}
	a.inflight += weight
	return true
}

// submitAsync admits, queues, or refuses an async sweep. Admitted jobs
// start on their own goroutine immediately; queued jobs start when
// release makes room, oldest first; when the queue is full the oldest
// queued job is evicted (shed) to make room for the newcomer, and with
// no queue at all the newcomer itself is refused (ok=false).
func (a *admission) submitAsync(q *queuedSweep) (ok bool) {
	var evicted *queuedSweep
	a.mu.Lock()
	if a.fitsLocked(q.weight) {
		a.inflight += q.weight
		a.mu.Unlock()
		go q.start()
		return true
	}
	if a.maxQueue == 0 {
		a.mu.Unlock()
		return false
	}
	if len(a.queue) >= a.maxQueue {
		evicted = a.queue[0]
		a.queue = a.queue[1:]
		ctrQueueDepth.Dec()
	}
	a.queue = append(a.queue, q)
	ctrQueueDepth.Inc()
	a.mu.Unlock()
	if evicted != nil {
		evicted.shed()
	}
	return true
}

// release returns weight to the budget, records the sweep's wall time
// for Retry-After sizing (weight-0 requests sweep nothing worth timing),
// and dispatches queued jobs that now fit.
func (a *admission) release(weight int, took time.Duration) {
	if weight > 0 {
		a.observe(took)
	}
	var starts []*queuedSweep
	a.mu.Lock()
	a.inflight -= weight
	if a.inflight < 0 {
		a.inflight = 0
	}
	for len(a.queue) > 0 && a.fitsLocked(a.queue[0].weight) {
		q := a.queue[0]
		a.queue = a.queue[1:]
		a.inflight += q.weight
		ctrQueueDepth.Dec()
		starts = append(starts, q)
	}
	a.mu.Unlock()
	for _, q := range starts {
		go q.start()
	}
}

// observe folds one sweep duration into the EWMA (α = 1/4).
func (a *admission) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := a.ewma.Load()
		next := int64(d)
		if old > 0 {
			next = (3*old + int64(d)) / 4
		}
		if a.ewma.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates when a shed client should come back: the recent
// sweep wall time, clamped to [1s, 60s].
func (a *admission) retryAfter() time.Duration {
	d := time.Duration(a.ewma.Load())
	if d < retryAfterMin {
		return retryAfterMin
	}
	if d > retryAfterMax {
		return retryAfterMax
	}
	return d
}

// queueLen is the current number of parked async jobs (tests, logs).
func (a *admission) queueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}
