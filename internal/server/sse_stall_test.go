package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// SSE progress under fast and stalled clients (docs/server.md,
// docs/robustness.md "slow clients cost themselves only"): the progress
// hook never blocks on a watcher, a watcher always ends on its terminal
// frame, and a client that stops reading costs only its own handler.

// frame is one parsed SSE event.
type frame struct {
	event string
	data  string
}

// readFrames parses an SSE stream to EOF.
func readFrames(t *testing.T, r io.Reader) []frame {
	t.Helper()
	var out []frame
	var cur frame
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.event != "":
			out = append(out, cur)
			cur = frame{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// attach opens j's event stream and reads its first frame, the replay
// of the progress snapshot j already holds, so the handler is known to
// be watching before the caller reports more progress.
func attach(t *testing.T, ts *httptest.Server, j *job) (*http.Response, *bufio.Reader) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweep/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the replayed snapshot: %v", err)
		}
		if line == "\n" {
			return resp, br
		}
	}
}

// endsOnDone checks that a drained stream's last two frames are the
// final progress snapshot of a job with total jobs and its done frame.
func endsOnDone(t *testing.T, frames []frame, total int) {
	t.Helper()
	n := len(frames)
	if n < 2 || frames[n-1].event != SSEEventDone {
		t.Fatalf("stream ended without its done frame (last frames %+v)", frames[max(0, n-2):])
	}
	var last progressEvent
	if frames[n-2].event != SSEEventProgress || json.Unmarshal([]byte(frames[n-2].data), &last) != nil ||
		last != (progressEvent{Done: total, Total: total}) {
		t.Fatalf("last progress frame %+v, want the final count", frames[n-2])
	}
}

// TestSSEBurstKeepsDoneFrame: a warm sweep reports all of its jobs
// within milliseconds, far faster than a client reads frames. A reading
// watcher must still end every such stream on its done frame, with the
// final count as its last progress snapshot.
func TestSSEBurstKeepsDoneFrame(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const total = 213
	for burst := 0; burst < 20; burst++ {
		j := s.jobs.create(StateRunning)
		j.update(1, 0, total)
		resp, br := attach(t, ts, j)
		for i := 2; i <= total; i++ {
			j.update(i, 0, total)
		}
		j.finish([]byte("{}"), total, false, "")
		frames := readFrames(t, br)
		resp.Body.Close()
		endsOnDone(t, frames, total)
	}
}

// stallListener hands out server-side connections whose writes, once
// stall is set, wait until resume is closed, as writes to a client
// that stopped reading wait once its socket buffers fill. held is
// closed by the first write that waits.
type stallListener struct {
	net.Listener
	stall  atomic.Bool
	resume chan struct{}
	held   chan struct{}
	once   sync.Once
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return stallConn{Conn: c, l: l}, nil
}

type stallConn struct {
	net.Conn
	l *stallListener
}

func (c stallConn) Write(b []byte) (int, error) {
	if c.l.stall.Load() {
		c.l.once.Do(func() { close(c.l.held) })
		<-c.l.resume
	}
	return c.Conn.Write(b)
}

// TestStalledSSEClientGetsDone: end to end over a real listener — a
// client stops reading and its handler blocks in a write, yet the
// progress hook runs at full speed. Once the client reads again, it
// gets the final snapshot and the done frame, and the server returns
// to its goroutine baseline.
func TestStalledSSEClientGetsDone(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewUnstartedServer(s.Handler())
	ln := &stallListener{Listener: ts.Listener, resume: make(chan struct{}), held: make(chan struct{})}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	j := s.jobs.create(StateRunning)

	base := runtime.NumGoroutine()
	const total = 200_000
	j.update(1, 0, total)
	resp, br := attach(t, ts, j)
	ln.stall.Store(true)

	// The pump never waits on the stalled handler: each update only
	// stores the snapshot and wakes the handler. A hook that blocked on
	// the client would never finish.
	pumped := make(chan time.Duration)
	go func() {
		start := time.Now()
		for i := 2; i <= total; i++ {
			j.update(i, 0, total)
		}
		pumped <- time.Since(start)
	}()
	select {
	case d := <-pumped:
		t.Logf("pumped %d updates past a stalled client in %v", total, d)
	case <-time.After(30 * time.Second):
		t.Fatal("progress hook blocked on a stalled SSE client")
	}
	select {
	case <-ln.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler never wrote to the stalled client")
	}
	j.finish([]byte("{}"), total, false, "")
	ln.stall.Store(false)
	close(ln.resume)

	frames := readFrames(t, br)
	resp.Body.Close()
	endsOnDone(t, frames, total)

	waitUntil := time.Now().Add(5 * time.Second)
	for time.Now().Before(waitUntil) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d — SSE handler leaked",
		base, runtime.NumGoroutine())
}
