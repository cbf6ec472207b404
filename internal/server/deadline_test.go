package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/report"
	"repro/internal/server"
)

// Request-deadline enforcement (deadline_ms, docs/server.md).

// TestDeadlineEnforcement: a sweep that produced nothing by its
// deadline is an explicit 504 with code deadline_exceeded; one that
// produced some cells still answers 200 with the partial report — the
// deadline reclaims the stuck workers either way.
func TestDeadlineEnforcement(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // drain the abandoned hang goroutines
	hang := uniqueName("zz-deadline-hang")
	if err := core.Register(faultinject.HangerSpec(hang, release)); err != nil {
		t.Fatal(err)
	}
	h := server.New(server.Options{Workers: 4}).Handler()

	t.Run("504-when-nothing-completes", func(t *testing.T) {
		start := time.Now()
		rec := postSweep(t, h, `{"kernels":["`+hang+`"],"archs":"M4","deadline_ms":150}`)
		// The engine returns when the deadline ends, even with every
		// worker stuck in the kernel, so the 504 is prompt.
		if took := time.Since(start); took > time.Second {
			t.Errorf("504 took %v for deadline_ms 150, want under 1s", took)
		}
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
		}
		var eb server.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Code != server.ErrCodeDeadlineExceeded {
			t.Fatalf("code = %q, want %q", eb.Code, server.ErrCodeDeadlineExceeded)
		}
		if eb.Error == "" {
			t.Fatal("504 body lost its error message")
		}
	})

	// The partial case uses slow kernels, not the hanger: a kernel hung
	// with no watchdog wedges its worker inline, so the canceled sweep
	// could never return a partial. Slow kernels always finish their
	// current job, which is exactly the shape deadline_ms cuts between
	// jobs — the fast kernel's cells survive, the undispatched slow
	// cells become skipped failures.
	t.Run("200-partial-when-some-cells-complete", func(t *testing.T) {
		slow := make([]string, 4)
		for i := range slow {
			slow[i] = uniqueName("zz-deadline-slow")
			if err := core.Register(faultinject.SlowSpec(slow[i], 120*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		body := fmt.Sprintf(
			`{"kernels":["madgwick","%s","%s","%s","%s"],"archs":"M4","workers":2,"deadline_ms":250}`,
			slow[0], slow[1], slow[2], slow[3])
		rec := postSweep(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200 (partial report): %s", rec.Code, rec.Body.String())
		}
		var rep report.JSONReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Partial {
			t.Fatal("deadline-cut report not marked partial")
		}
		if len(rep.Failures) == 0 {
			t.Fatal("deadline-cut report lost its failures block")
		}
		for _, f := range rep.Failures {
			if f.Kernel == "madgwick" {
				t.Fatalf("fast kernel charged with a deadline failure: %+v", f)
			}
		}
		found := false
		for _, k := range rep.Kernels {
			if k.Name == "madgwick" {
				found = true
				if len(k.Cells) == 0 {
					t.Fatal("fast kernel lost its cells to the deadline")
				}
			}
		}
		if !found {
			t.Fatal("fast kernel missing from the partial report")
		}
	})
}
