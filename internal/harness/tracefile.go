package harness

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mcu"
)

// The trace-capture CSV format: the interchange file a Saleae/STLINK
// export pipeline writes and the TraceBackend ingests. One file holds
// any number of captures, each identified by its (kernel, arch, cache)
// cell; every row restates the cell so captures can be concatenated
// from separate exports. docs/backends.md is the schema reference.

// TraceCSVHeader is the trace-capture column set: the cell identity
// (kernel, arch, cache), the row kind, and the kind-dependent payload.
var TraceCSVHeader = []string{"kernel", "arch", "cache", "kind", "time_s", "value", "detail"}

// Row kinds of the trace-capture CSV.
const (
	traceKindMeta   = "meta"   // time_s=trace start, value=reps, detail=sample rate (Hz)
	traceKindSample = "sample" // time_s=sample timestamp, value=power (W)
	traceKindGPIO   = "gpio"   // time_s=edge timestamp, value=pin name, detail=rise|fall
)

// GPIO pin names on the wire.
const (
	tracePinTrigger = "trigger"
	tracePinLatency = "latency"
)

// TraceCapture is one externally captured cell: the current waveform
// and logic-analyzer edges recorded while the named kernel ran reps
// ROI repetitions on the named board.
type TraceCapture struct {
	Kernel  string
	Arch    string
	CacheOn bool
	Reps    int
	Trace   Trace
	Events  []GPIOEvent
}

// captureKey is the cell identity a capture is filed under,
// case-insensitive in kernel and board name like the registries.
func captureKey(kernel, archName string, cacheOn bool) string {
	return strings.ToLower(kernel) + "\x00" + strings.ToLower(archName) + "\x00" + strconv.FormatBool(cacheOn)
}

// ftoa renders a float for the trace CSV: shortest form that parses
// back to the identical bits, so a write/read round trip is exact.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTraceCSV streams captures in the trace-capture CSV format: a
// header row, then per capture one meta row, the power samples, and the
// GPIO edges.
func WriteTraceCSV(w io.Writer, captures []TraceCapture) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(TraceCSVHeader); err != nil {
		return err
	}
	for _, c := range captures {
		cell := []string{c.Kernel, c.Arch, strconv.FormatBool(c.CacheOn)}
		meta := append(append([]string{}, cell...),
			traceKindMeta, ftoa(c.Trace.StartS), strconv.Itoa(c.Reps), ftoa(c.Trace.SampleHz))
		if err := cw.Write(meta); err != nil {
			return err
		}
		for i, p := range c.Trace.Power {
			t := c.Trace.StartS + float64(i)/c.Trace.SampleHz
			row := append(append([]string{}, cell...), traceKindSample, ftoa(t), ftoa(p), "")
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		for _, e := range c.Events {
			pin := tracePinTrigger
			if e.Pin == PinLatency {
				pin = tracePinLatency
			}
			edge := "fall"
			if e.Rising {
				edge = "rise"
			}
			row := append(append([]string{}, cell...), traceKindGPIO, ftoa(e.TimeS), pin, edge)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// rawCapture accumulates one capture's rows before assembly.
type rawCapture struct {
	kernel, arch string
	cacheOn      bool
	hasMeta      bool
	startS       float64
	sampleHz     float64
	reps         int
	samples      []traceSample
	events       []GPIOEvent
}

type traceSample struct {
	timeS float64
	power float64
}

// ReadTraceCSV parses the trace-capture CSV format. Real exporter
// output is messy, so the reader is tolerant where tolerance is safe —
// CRLF line endings, blank lines, and `#` comment lines are accepted,
// and power samples may arrive out of timestamp order (they are sorted
// into the waveform) — and precise where it is not: every malformed
// row fails with its line number and field.
func ReadTraceCSV(r io.Reader) ([]TraceCapture, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = -1 // length checked per row for better errors

	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("harness: empty trace CSV")
	}
	if err != nil {
		return nil, fmt.Errorf("harness: trace CSV header: %w", err)
	}
	if len(header) != len(TraceCSVHeader) || header[0] != "kernel" || header[3] != "kind" {
		return nil, fmt.Errorf("harness: unrecognized trace CSV header %q", strings.Join(header, ","))
	}

	raw := map[string]*rawCapture{}
	var order []string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("harness: trace CSV: %w", err)
		}
		line, _ := cr.FieldPos(0)
		if len(rec) != len(TraceCSVHeader) {
			return nil, fmt.Errorf("harness: trace CSV line %d: %d fields, want %d",
				line, len(rec), len(TraceCSVHeader))
		}
		kernel, arch := rec[0], rec[1]
		cacheOn, err := strconv.ParseBool(rec[2])
		if err != nil {
			return nil, fmt.Errorf("harness: trace CSV line %d: cache %q: %w", line, rec[2], err)
		}
		timeS, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("harness: trace CSV line %d: time_s %q: %w", line, rec[4], err)
		}
		key := captureKey(kernel, arch, cacheOn)
		rc := raw[key]
		if rc == nil {
			rc = &rawCapture{kernel: kernel, arch: arch, cacheOn: cacheOn}
			raw[key] = rc
			order = append(order, key)
		}
		switch rec[3] {
		case traceKindMeta:
			if rc.hasMeta {
				return nil, fmt.Errorf("harness: trace CSV line %d: duplicate meta row for %s/%s cache=%v",
					line, kernel, arch, cacheOn)
			}
			reps, err := strconv.Atoi(rec[5])
			if err != nil || reps < 1 {
				return nil, fmt.Errorf("harness: trace CSV line %d: reps %q must be a positive integer", line, rec[5])
			}
			hz, err := strconv.ParseFloat(rec[6], 64)
			if err != nil || hz <= 0 {
				return nil, fmt.Errorf("harness: trace CSV line %d: sample rate %q must be a positive number", line, rec[6])
			}
			rc.hasMeta, rc.startS, rc.reps, rc.sampleHz = true, timeS, reps, hz
		case traceKindSample:
			p, err := strconv.ParseFloat(rec[5], 64)
			if err != nil {
				return nil, fmt.Errorf("harness: trace CSV line %d: power %q: %w", line, rec[5], err)
			}
			rc.samples = append(rc.samples, traceSample{timeS: timeS, power: p})
		case traceKindGPIO:
			var pin int
			switch rec[5] {
			case tracePinTrigger:
				pin = PinTrigger
			case tracePinLatency:
				pin = PinLatency
			default:
				return nil, fmt.Errorf("harness: trace CSV line %d: pin %q, want %q or %q",
					line, rec[5], tracePinTrigger, tracePinLatency)
			}
			var rising bool
			switch rec[6] {
			case "rise":
				rising = true
			case "fall":
				rising = false
			default:
				return nil, fmt.Errorf("harness: trace CSV line %d: edge %q, want \"rise\" or \"fall\"", line, rec[6])
			}
			rc.events = append(rc.events, GPIOEvent{Pin: pin, Rising: rising, TimeS: timeS})
		default:
			return nil, fmt.Errorf("harness: trace CSV line %d: unknown row kind %q", line, rec[3])
		}
	}

	out := make([]TraceCapture, 0, len(order))
	for _, key := range order {
		rc := raw[key]
		if !rc.hasMeta {
			return nil, fmt.Errorf("harness: trace CSV: capture %s/%s cache=%v has no meta row",
				rc.kernel, rc.arch, rc.cacheOn)
		}
		if len(rc.samples) == 0 {
			return nil, fmt.Errorf("harness: trace CSV: capture %s/%s cache=%v has no power samples",
				rc.kernel, rc.arch, rc.cacheOn)
		}
		// Out-of-order exports are legal; the waveform is rebuilt in
		// timestamp order (a stable sort keeps duplicate-timestamp rows
		// in file order).
		sort.SliceStable(rc.samples, func(i, j int) bool { return rc.samples[i].timeS < rc.samples[j].timeS })
		sort.SliceStable(rc.events, func(i, j int) bool { return rc.events[i].TimeS < rc.events[j].TimeS })
		tr := Trace{SampleHz: rc.sampleHz, StartS: rc.startS, Power: make([]float64, len(rc.samples))}
		for i, s := range rc.samples {
			tr.Power[i] = s.power
		}
		out = append(out, TraceCapture{
			Kernel: rc.kernel, Arch: rc.arch, CacheOn: rc.cacheOn,
			Reps: rc.reps, Trace: tr, Events: rc.events,
		})
	}
	return out, nil
}

// TraceBackend replays externally captured traces through the shared
// Analyze pipeline: a Measure call looks up the request's cell among
// the loaded captures and integrates the recorded waveform inside the
// recorded ROI. It is a PartialBackend — a capture file rarely covers
// the whole grid — so uncovered cells fall back to the simulator.
type TraceBackend struct {
	captures    map[string]TraceCapture
	fingerprint string
}

// NewTraceBackend builds a backend over in-memory captures. Two
// captures of the same (kernel, arch, cache) cell are rejected: there
// is no principled way to pick one.
func NewTraceBackend(captures []TraceCapture) (*TraceBackend, error) {
	if len(captures) == 0 {
		return nil, fmt.Errorf("harness: trace backend needs at least one capture")
	}
	m := make(map[string]TraceCapture, len(captures))
	for _, c := range captures {
		key := captureKey(c.Kernel, c.Arch, c.CacheOn)
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("harness: duplicate trace capture for %s/%s cache=%v",
				c.Kernel, c.Arch, c.CacheOn)
		}
		m[key] = c
	}
	// The fingerprint digests the canonical serialization of the
	// captures in sorted cell order, so identical data loaded from
	// different files (or orderings) salts cache keys identically.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		c := m[k]
		if err := WriteTraceCSV(h, []TraceCapture{c}); err != nil {
			return nil, fmt.Errorf("harness: fingerprinting trace captures: %w", err)
		}
	}
	return &TraceBackend{captures: m, fingerprint: hex.EncodeToString(h.Sum(nil))}, nil
}

// LoadTraceBackend reads a trace-capture CSV file into a TraceBackend —
// the library form of `entobench sweep -backend trace -tracefile FILE`.
func LoadTraceBackend(path string) (*TraceBackend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: trace backend: %w", err)
	}
	defer f.Close()
	captures, err := ReadTraceCSV(f)
	if err != nil {
		return nil, fmt.Errorf("harness: trace backend: %s: %w", path, err)
	}
	return NewTraceBackend(captures)
}

// Name implements Backend.
func (tb *TraceBackend) Name() string { return "trace" }

// Source implements Backend: every replayed cell is measured.
func (tb *TraceBackend) Source() string { return SourceMeasured }

// Fingerprint implements Backend: a digest of the loaded captures.
func (tb *TraceBackend) Fingerprint() string { return tb.fingerprint }

// Covers implements PartialBackend.
func (tb *TraceBackend) Covers(kernel, archName string, cacheOn bool) bool {
	_, ok := tb.captures[captureKey(kernel, archName, cacheOn)]
	return ok
}

// Cells returns the covered (kernel, arch, cache) cell count.
func (tb *TraceBackend) Cells() int { return len(tb.captures) }

// Measure implements Backend: replay the captured waveform and edges
// through the shared analysis pipeline. The capture's recorded rep
// count is ground truth — the build configuration of the run that
// produced the trace — so the request's modeled rep count is ignored,
// exactly as the paper's synchronization script reads reps from the
// benchmark JSON rather than re-deriving them.
func (tb *TraceBackend) Measure(req MeasureRequest) (Measurement, error) {
	c, ok := tb.captures[captureKey(req.Kernel, req.Arch.Name, req.CacheOn)]
	if !ok {
		return Measurement{}, fmt.Errorf("harness: trace backend has no capture for %s/%s cache=%v",
			req.Kernel, req.Arch.Name, req.CacheOn)
	}
	return Analyze(c.Trace, c.Events, c.Reps)
}

// SynthesizeCapture renders the cell's synthetic trace as a
// TraceCapture — the export half of the round trip, used by
// `entobench trace` to produce capture files the TraceBackend (or an
// external tool) can consume. The waveform and events are exactly what
// MeasureOn would synthesize for this cell.
func (pp *Prepared) SynthesizeCapture(arch mcu.Arch, prec mcu.Precision, cfg Config) TraceCapture {
	model := arch.Estimate(pp.counts, prec, cfg.CacheOn)
	reps := autoReps(cfg, model.LatencyS)
	tr, events := SynthesizeTrace(model, arch, reps, int64(len(pp.name)))
	return TraceCapture{
		Kernel: pp.name, Arch: arch.Name, CacheOn: cfg.CacheOn,
		Reps: reps, Trace: tr, Events: events,
	}
}
