package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
)

// daemonRate is the daemon-mix open-loop rate in requests per second:
// with the request mix of gen.go the process keeps about 40% of one
// core busy, with no growing backlog.
const daemonRate = 150.0

// clients is the number of load-generator goroutines, each with one
// connection: the host's two CPUs.
const clients = 2

// Request headers that tie a server-side handler call to the client's
// request, so handler time can be subtracted from client latency.
const (
	seqHeader  = "X-Perfbench-Seq"
	spanHeader = "X-Perfbench-Span"
)

// daemonWorkload is daemon-mix: an open loop at daemonRate over a real
// loopback listener to server.New(...).Handler(), with a seeded cell
// store and seed-generated extra boards registered during set-up.
type daemonWorkload struct {
	plan    plan
	bodies  [][]byte
	archs   []mcu.Arch // Table IV, then every extra board
	union   map[string]core.Record
	dir     string
	tc      *tracedCache // traced runs only
	tr      *tracer
	hs      *http.Server
	serveCh chan error
	url     string
	cl      [clients]*http.Client

	// Per request index, written by the goroutine serving or sending it
	// and read after the phase ends.
	handlerNS []atomic.Int64
	got       [][sha256.Size]byte // hash of the 200 response body
	ok        []bool              // status 200 and no transport error

	tracing atomic.Bool
	phaseID uint64
}

// requests returns the request count for a run of seconds: an even
// number of whole blocks, so a traced run can split it into two halves
// of whole blocks.
func requests(seconds int) int {
	n := int(math.Ceil(daemonRate * float64(seconds) / (2 * blockSize)))
	return 2 * blockSize * n
}

// daemonPool is the daemon-mix kernel vocabulary: the suite kernels
// that fit every Table IV board, so each kernel of a query adds the
// same number of cells.
func daemonPool() []string {
	var pool []string
	for _, sp := range core.Suite() {
		fits := true
		for _, a := range mcu.TableIVSet() {
			fits = fits && sp.Fits(a)
		}
		if fits {
			pool = append(pool, sp.Name)
		}
	}
	return pool
}

func (q query) key() string { return strings.Join(q.Kernels, ",") + "@" + q.Archs }

func (w *daemonWorkload) setup(b *bench) error {
	w.tr = b.tr
	tableIV := mcu.TableIVSet()
	w.plan = genPlan(b.cfg.seed, requests(b.cfg.seconds), daemonPool(), tableIV)

	// Register the extra boards, then keep the registry's copies: the
	// registry stamps their provenance, which the export prints.
	w.archs = append([]mcu.Arch(nil), tableIV...)
	for _, nb := range w.plan.boards {
		if err := mcu.Register(nb); err != nil {
			return err
		}
		a, _ := mcu.ByName(nb.Name)
		w.archs = append(w.archs, a)
	}
	for _, r := range w.plan.reqs {
		body, err := json.Marshal(r.q)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
	}
	n := len(w.plan.reqs)
	w.handlerNS = make([]atomic.Int64, n)
	w.got = make([][sha256.Size]byte, n)
	w.ok = make([]bool, n)

	// The daemon's warm cell store: the full suite on Table IV. This is
	// the process's first sweep, so it pays dataset-master synthesis.
	var err error
	if w.dir, err = os.MkdirTemp(b.cfg.workDir, "store-"); err != nil {
		return err
	}
	pc, err := report.OpenCellCache(w.dir)
	if err != nil {
		return err
	}
	specs := core.Suite()
	if w.tr != nil {
		specs = w.tr.tracedSpecs(specs)
	}
	recs, err := core.CharacterizeSuiteOpts(specs, tableIV, core.SweepOptions{CellCache: pc})
	if err := checkSweep(report.Characterization{Records: recs}, err); err != nil {
		return fmt.Errorf("seeding the cell store: %w", err)
	}
	var cc core.CellCache = pc
	if w.tr != nil {
		w.tc = &tracedCache{inner: pc, t: w.tr}
		cc = w.tc
	}
	if err := w.listen(server.New(server.Options{CellCache: cc}).Handler()); err != nil {
		return err
	}
	// Prime the sweep memo with the hot queries.
	for _, q := range w.plan.hot {
		body, _ := json.Marshal(q)
		if _, _, err := w.send(w.cl[0], -1, body, 0); err != nil {
			return fmt.Errorf("priming hot query: %w", err)
		}
	}
	return nil
}

// verify checks the responses to requests lo..hi-1 against their
// references and returns how many failed. References come from one
// uncached serial sweep of the kernel pool over Table IV plus every
// extra board, computed after the measured phases so that neither
// set-up nor the timed window pays for it. A query's reference is that
// sweep restricted to the query's kernels and boards: records are
// independent per kernel, and cells keep the query's board order.
func (w *daemonWorkload) verify(lo, hi int) (int, error) {
	if w.union == nil {
		var specs []core.Spec
		for _, name := range daemonPool() {
			sp, _ := core.ByName(name)
			specs = append(specs, sp)
		}
		recs, err := core.CharacterizeSuiteOpts(specs, w.archs, core.SweepOptions{Workers: 1})
		if err := checkSweep(report.Characterization{Records: recs}, err); err != nil {
			return 0, fmt.Errorf("reference sweep: %w", err)
		}
		w.union = map[string]core.Record{}
		for _, r := range recs {
			w.union[r.Spec.Name] = r
		}
	}
	refs := map[string][sha256.Size]byte{}
	failed := 0
	for seq := lo; seq < hi; seq++ {
		r := w.plan.reqs[seq]
		ref, seen := refs[r.q.key()]
		if !seen {
			out, err := encode(w.restrict(r.q.Kernels, r.board))
			if err != nil {
				return 0, err
			}
			ref = sha256.Sum256(out)
			refs[r.q.key()] = ref
		}
		if !w.ok[seq] || w.got[seq] != ref {
			if failed++; failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): response differs from the reference or failed\n", seq, classNames[r.class])
			}
		}
	}
	return failed, nil
}

// restrict is the union reference sweep cut down to kernels (in the
// given order), the Table IV boards, and extra board number board
// (none when negative).
func (w *daemonWorkload) restrict(kernels []string, board int) report.Characterization {
	keep := map[string]bool{}
	for _, a := range mcu.TableIVSet() {
		keep[a.Name] = true
	}
	if board >= 0 {
		keep[w.plan.boards[board].Name] = true
	}
	var c report.Characterization
	for _, k := range kernels {
		r := w.union[k]
		var cells []core.ArchRun
		for _, cell := range r.Cells {
			if keep[cell.Arch.Name] {
				cells = append(cells, cell)
			}
		}
		r.Cells = cells
		c.Records = append(c.Records, r)
	}
	return c
}

// listen serves h on a loopback listener and builds the clients.
func (w *daemonWorkload) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/v1/sweep"
	w.hs = &http.Server{Handler: w.wrap(h)}
	w.serveCh = make(chan error, 1)
	go func() { w.serveCh <- w.hs.Serve(ln) }()
	for i := range w.cl {
		w.cl[i] = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return nil
}

// wrap times every call into the server's handler.
func (w *daemonWorkload) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil || seq < 0 || seq >= len(w.handlerNS) {
			h.ServeHTTP(rw, r)
			return
		}
		if !w.tracing.Load() {
			t0 := time.Now()
			h.ServeHTTP(rw, r)
			w.handlerNS[seq].Store(int64(time.Since(t0)))
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		tr := w.tr
		s := span{id: tr.newID(), parent: parent, name: "server.handler", start: tr.now(), lane: tr.lane(),
			arg: classNames[w.plan.reqs[seq].class]}
		h.ServeHTTP(rw, r)
		s.end = tr.now()
		w.handlerNS[seq].Store(s.end - s.start)
		tr.record(s, false, false, true)
	})
}

// send posts one request and returns the hash and size of its 200
// response body.
func (w *daemonWorkload) send(c *http.Client, seq int, body []byte, spanID uint64) ([sha256.Size]byte, int, error) {
	var sum [sha256.Size]byte
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return sum, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return sum, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return sum, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return sum, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return sha256.Sum256(out), len(out), nil
}

// loadPhase is one open-loop run over a contiguous range of requests.
type loadPhase struct {
	phase
	idx   []int
	late  []float64 // ms from scheduled to actual send
	rtt   []float64 // ms from actual send to response read
	bytes int64
	busy  time.Duration // Σ handler time
}

// openLoop sends requests lo..hi-1 on a fixed schedule of one every
// 1/daemonRate seconds, from clients goroutines with one connection
// each. A request's latency runs from its scheduled send time, so a
// stall also charges the requests that queue behind it.
func (w *daemonWorkload) openLoop(lo, hi int, traced bool) loadPhase {
	n := hi - lo
	lp := loadPhase{idx: make([]int, n), late: make([]float64, n), rtt: make([]float64, n)}
	lp.lat = make([]float64, n)
	for i := range lp.idx {
		lp.idx[i] = lo + i
	}
	interval := time.Duration(math.Round(float64(time.Second) / daemonRate))
	var next atomic.Int64
	var errs, size atomic.Int64
	var wg sync.WaitGroup
	m := startMeter()
	start := m.start.Add(interval)
	for _, c := range w.cl {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				seq := lo + k
				var spanID uint64
				var s span
				if traced {
					spanID = w.tr.newID()
					s = span{id: spanID, parent: w.phaseID, name: "client.request", start: w.tr.now(),
						lane: w.tr.lane(), arg: classNames[w.plan.reqs[seq].class]}
				}
				sent := time.Now()
				sum, nb, err := w.send(c, seq, w.bodies[seq], spanID)
				done := time.Now()
				if traced {
					s.end = w.tr.now()
					w.tr.record(s, false, false, true)
				}
				lp.lat[k] = float64(done.Sub(due)) / 1e6
				lp.late[k] = float64(sent.Sub(due)) / 1e6
				lp.rtt[k] = float64(done.Sub(sent)) / 1e6
				size.Add(int64(nb))
				w.got[seq], w.ok[seq] = sum, err == nil
				if err != nil {
					if errs.Add(1) <= 3 {
						fmt.Fprintf(os.Stderr, "perfbench: request %d (%s) failed: %v\n", seq, classNames[w.plan.reqs[seq].class], err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	m.stop(&lp.phase)
	lp.bytes = size.Load()
	for _, i := range lp.idx {
		lp.busy += time.Duration(w.handlerNS[i].Load())
	}
	return lp
}

func (w *daemonWorkload) measure(b *bench) (result, error) {
	lp := w.openLoop(0, len(w.plan.reqs), false)
	// An open loop completes what it is offered, so completed requests
	// per wall second would only echo daemonRate. ops_per_s is the
	// service capacity instead: requests per second of handler time.
	m, err := endToEnd("daemon-mix", lp.phase, float64(len(lp.lat))/lp.busy.Seconds())
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: daemon-mix late_ms p90 %.3f\n", pct(lp.late, 90))
	failed, err := w.verify(0, len(w.plan.reqs))
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: len(lp.lat), Failed: failed, Metrics: m}, nil
}

// traced runs the first half of the requests untraced and the second
// half traced, then probes MeasureOn and the report encoder directly.
func (w *daemonWorkload) traced(b *bench) (result, error) {
	tr := w.tr
	half := len(w.plan.reqs) / 2
	plain := w.openLoop(0, half, false)

	tr.resetAggregates()
	w.phaseID = tr.newID()
	tr.setParent(w.phaseID)
	w.tc.on.Store(true)
	w.tracing.Store(true)
	before := obs.Counters()
	lp := w.openLoop(half, len(w.plan.reqs), true)
	delta := counterDelta(before)
	w.tracing.Store(false)
	w.tc.on.Store(false)

	n := float64(len(lp.lat))
	m := layerMetrics(tr, delta, n)
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	byClass := make([][]float64, numClasses)
	var transport []float64
	for k, seq := range lp.idx {
		h := float64(w.handlerNS[seq].Load()) / 1e6
		c := w.plan.reqs[seq].class
		byClass[c] = append(byClass[c], h)
		transport = append(transport, lp.rtt[k]-h)
	}
	for c, xs := range byClass {
		set("server.handler_ms.p50."+classNames[c], pct(xs, 50))
	}
	set("server.transport_ms", pct(transport, 50))
	set("loadgen.late_ms.p90", pct(lp.late, 90))
	set("report.bytes_out", float64(lp.bytes)/n)
	set("trace.overhead_share", median(lp.lat)/median(plain.lat)-1)

	failed, err := w.verify(0, len(w.plan.reqs))
	if err != nil {
		return result{}, err
	}
	exportMS, encodeMS, err := w.probeReport()
	if err != nil {
		return result{}, err
	}
	set("report.export_ms", exportMS)
	set("report.encode_ms", encodeMS)
	if err := w.probeMeasure(half); err != nil {
		return result{}, err
	}
	set("harness.measure_us.p50", pct(tr.samples["harness.measure"], 50))
	if err := finishTrace(b, tr); err != nil {
		return result{}, err
	}
	attempted := len(plain.lat) + len(lp.lat)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// probeReportReps is how often each hot query is rendered by the
// direct report probe.
const probeReportReps = 10

// probeReport renders the hot queries, which the sweep memo holds,
// through direct calls to Characterization.JSONExport and
// report.WriteJSONReport, and returns the mean ms of each per render.
// The bytes are checked against the reference like every response.
func (w *daemonWorkload) probeReport() (float64, float64, error) {
	tr := w.tr
	tableIV := mcu.TableIVSet()
	for _, q := range w.plan.hot {
		var specs []core.Spec
		for _, name := range q.Kernels {
			sp, _ := core.ByName(name)
			specs = append(specs, sp)
		}
		want, err := encode(w.restrict(q.Kernels, -1))
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < probeReportReps; i++ {
			c, err := report.RunSweepQuery(specs, tableIV, core.SweepOptions{})
			if err := checkSweep(c, err); err != nil {
				return 0, 0, err
			}
			var rep report.JSONReport
			var buf bytes.Buffer
			tr.timed("report.export", w.phaseID, func() { rep = c.JSONExport() })
			tr.timed("report.encode", w.phaseID, func() { err = report.WriteJSONReport(&buf, rep) })
			if err != nil {
				return 0, 0, err
			}
			if !bytes.Equal(buf.Bytes(), want) {
				return 0, 0, fmt.Errorf("report probe bytes differ from the reference")
			}
		}
	}
	calls := float64(len(w.plan.hot) * probeReportReps)
	return float64(tr.sumOf("report.export")) / 1e6 / calls, float64(tr.sumOf("report.encode")) / 1e6 / calls, nil
}

// probeMeasure times direct Prepared.MeasureOn calls for every new-board
// cell of the traced half's requests, on a prepare made by a direct
// harness.PrepareContext call per kernel.
func (w *daemonWorkload) probeMeasure(from int) error {
	tr := w.tr
	tableIV := mcu.TableIVSet()
	prepared := map[string]*harness.Prepared{}
	for _, r := range w.plan.reqs[from:] {
		if r.board < 0 {
			continue
		}
		board, _ := mcu.ByName(w.plan.boards[r.board].Name)
		for _, name := range r.q.Kernels {
			sp, _ := core.ByName(name)
			pp := prepared[name]
			if pp == nil {
				var err error
				tr.timed("harness.prepare.direct", w.phaseID, func() {
					pp, err = harness.PrepareContext(context.Background(), sp.Factory(), tableIV[0], sp.Prec, harness.DefaultConfig())
				})
				if err != nil {
					return err
				}
				prepared[name] = pp
			}
			for _, on := range []bool{true, false} {
				cfg := harness.DefaultConfig()
				cfg.CacheOn = on
				s := span{id: tr.newID(), parent: w.phaseID, name: "harness.measure", start: tr.now(), arg: name + " on " + board.Name}
				_, err := pp.MeasureOn(board, sp.Prec, cfg)
				s.end = tr.now()
				tr.record(s, false, true, false)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *daemonWorkload) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := w.hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
		}
		cancel()
		<-w.serveCh
		for _, c := range w.cl {
			c.CloseIdleConnections()
		}
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
