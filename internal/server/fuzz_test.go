package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzSweepRequest feeds arbitrary bytes through the POST /v1/sweep
// front half: decodeSweep, validateSweep and resolveSweep. It must never
// panic. A negative workers, cell_timeout_ms or deadline_ms is a 400
// naming the first such field; a resolved request has at least one
// kernel and one board, its kernels are unique and resolve by name, and
// its boards are unique case-insensitively.
func FuzzSweepRequest(f *testing.F) {
	// The request examples of docs/server.md, then edge cases.
	for _, seed := range []string{
		``,
		`{}`,
		`{"async":true}`,
		`{"kernels":["madgwick"],"archs":"M4"}`,
		`{"kernels":["madgwick","mahony"],"archs":"M4"}`,
		`{"kernels":["madgwick","mahony"],"archs":"M4,M33","workers":8,"cell_timeout_ms":2000,"backend":"trace","async":false}`,
		`{"kernels":["madgwick","Madgwick","madgwick"],"archs":"m4,M4,tableiv"}`,
		`{"workers":-1,"deadline_ms":-5}`,
		`{"cell_timeout_ms":-1}`,
		`{"kernels":["no-such-kernel"]}`,
		`{"archs":"no-such-board"}`,
		`{"unknown":1}`,
		`{"async":true} {"workers":-1} garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSweep(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(bytes.TrimSpace(body)) > 0 && !json.Valid(body) {
			t.Fatalf("decodeSweep accepted %q, which is not one JSON value", body)
		}
		rec := httptest.NewRecorder()
		valid := validateSweep(rec, req)
		wantField := ""
		switch {
		case req.Workers < 0:
			wantField = "workers"
		case req.CellTimeoutMS < 0:
			wantField = "cell_timeout_ms"
		case req.DeadlineMS < 0:
			wantField = "deadline_ms"
		}
		if wantField != "" {
			var eb ErrorBody
			if valid || rec.Code != http.StatusBadRequest ||
				json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Field != wantField {
				t.Fatalf("request %+v: valid=%v status %d body %s, want a 400 naming %q",
					req, valid, rec.Code, rec.Body.Bytes(), wantField)
			}
			return
		}
		if !valid {
			t.Fatalf("request %+v refused: %s", req, rec.Body.Bytes())
		}

		specs, archs, err := resolveSweep(req)
		if err != nil {
			return
		}
		if len(specs) == 0 || len(archs) == 0 {
			t.Fatalf("request %+v resolved to %d kernels × %d boards", req, len(specs), len(archs))
		}
		kernels := make(map[string]bool, len(specs))
		for _, sp := range specs {
			if kernels[sp.Name] {
				t.Fatalf("request %+v: kernel %q resolved twice", req, sp.Name)
			}
			kernels[sp.Name] = true
			if got, ok := core.ByName(sp.Name); !ok || got.Name != sp.Name {
				t.Fatalf("request %+v: kernel %q does not resolve by name", req, sp.Name)
			}
		}
		boards := make(map[string]bool, len(archs))
		for _, a := range archs {
			name := strings.ToLower(a.Name)
			if boards[name] {
				t.Fatalf("request %+v: board %q resolved twice", req, a.Name)
			}
			boards[name] = true
		}
	})
}
