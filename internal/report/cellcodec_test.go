package report

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
)

// recordingCache is a core.CellCache that never hits and keeps every
// cell a sweep offers it.
type recordingCache struct {
	mu       sync.Mutex
	measured []core.MeasuredCellResult
	static   []core.StaticCellResult
}

func (*recordingCache) LoadStatic(core.Spec) (core.StaticCellResult, bool) {
	return core.StaticCellResult{}, false
}

func (r *recordingCache) StoreStatic(_ core.Spec, res core.StaticCellResult) {
	r.mu.Lock()
	r.static = append(r.static, res)
	r.mu.Unlock()
}

func (*recordingCache) LoadCell(core.Spec, mcu.Arch, bool, string) (core.MeasuredCellResult, bool) {
	return core.MeasuredCellResult{}, false
}

func (r *recordingCache) StoreCell(_ core.Spec, _ mcu.Arch, _ bool, _ string, res core.MeasuredCellResult) {
	r.mu.Lock()
	r.measured = append(r.measured, res)
	r.mu.Unlock()
}

// jsonRoundTrip is the oracle: the JSON encoding the version-2 records
// used, decoded back into a fresh value.
func jsonRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// Every cell of the real Table IV sweep must come back from the binary
// codec exactly as it comes back from JSON, and exactly as computed.
func TestCellCodecMatchesJSONOracle(t *testing.T) {
	rec := &recordingCache{}
	if _, err := core.CharacterizeSuiteOpts(core.Suite(), mcu.TableIVSet(), core.SweepOptions{Workers: 2, CellCache: rec}); err != nil {
		t.Fatal(err)
	}
	// One static cell per kernel; every kernel measures at least one
	// board with the cache on and off.
	if len(rec.static) != len(core.Suite()) || len(rec.measured) < 2*len(core.Suite()) {
		t.Fatalf("sweep offered %d static and %d measured cells for %d kernels", len(rec.static), len(rec.measured), len(core.Suite()))
	}
	for _, c := range rec.measured {
		got, ok := decodeMeasuredCell(appendMeasuredCell(nil, c))
		if !ok {
			t.Fatalf("%s: encoded cell rejected", c.Name)
		}
		if want := jsonRoundTrip(t, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: binary round trip %+v, JSON round trip %+v", c.Name, got, want)
		}
		if !sameMeasured(got, c) {
			t.Fatalf("%s: round trip %+v, computed %+v", c.Name, got, c)
		}
	}
	for _, c := range rec.static {
		got, ok := decodeStaticCell(appendStaticCell(nil, c))
		if !ok {
			t.Fatalf("encoded static cell %+v rejected", c)
		}
		if want := jsonRoundTrip(t, c); got != want || got != c {
			t.Fatalf("static round trip %+v, JSON %+v, computed %+v", got, want, c)
		}
	}
}

// sameMeasured compares two cells with floats by their bits, so NaN
// payloads and −0 count.
func sameMeasured(a, b core.MeasuredCellResult) bool {
	return floatBits(a) == floatBits(b) && a.Meas.Reps == b.Meas.Reps && a.Counts == b.Counts &&
		a.Name == b.Name && a.Valid == b.Valid && a.ValidErr == b.ValidErr
}

func floatBits(c core.MeasuredCellResult) [9]uint64 {
	var bits [9]uint64
	for i, f := range [...]float64{
		c.Model.Cycles, c.Model.LatencyS, c.Model.AvgPowerW, c.Model.EnergyJ, c.Model.PeakPowerW,
		c.Meas.LatencyS, c.Meas.EnergyJ, c.Meas.AvgPowerW, c.Meas.PeakPowerW,
	} {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// randomMeasured builds a cell whose floats are arbitrary bit patterns
// (NaNs with payloads, infinities, subnormals, −0 all occur), drawn
// from a splitmix64 stream seeded by seed.
func randomMeasured(seed uint64, name, validErr string, valid bool) core.MeasuredCellResult {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	f := func() float64 { return math.Float64frombits(next()) }
	return core.MeasuredCellResult{
		Model:    mcu.Estimate{Cycles: f(), LatencyS: f(), AvgPowerW: f(), EnergyJ: f(), PeakPowerW: f()},
		Meas:     harness.Measurement{LatencyS: f(), EnergyJ: f(), AvgPowerW: f(), PeakPowerW: f(), Reps: int(int32(next()))},
		Counts:   profile.Counts{F: next(), I: next(), M: next(), B: next()},
		Name:     name,
		Valid:    valid,
		ValidErr: validErr,
	}
}

// FuzzCellCodec: decoding arbitrary bytes never panics, and a payload
// either decoder accepts re-encodes to exactly those bytes, so the
// codec has one encoding per cell. Encoded random cells round-trip bit
// for bit, and lose that on any truncation or under the other tag.
func FuzzCellCodec(f *testing.F) {
	m := randomMeasured(1, "madgwick", "", true)
	f.Add(appendMeasuredCell(nil, m), uint64(1), "madgwick", "", true)
	f.Add(appendMeasuredCell(nil, randomMeasured(2, "", "validate: diverged", false)), uint64(2), "", "x", false)
	f.Add(appendStaticCell(nil, core.StaticCellResult{Static: profile.Counts{F: 1, I: 2, M: 3, B: 4}, Flash: -5}), uint64(3), "sift", "", true)
	f.Add([]byte{}, uint64(0), "", "", false)
	f.Add([]byte{tagMeasured}, uint64(0), "", "", false)
	f.Add([]byte{tagStatic}, uint64(0), "", "", false)

	f.Fuzz(func(t *testing.T, data []byte, seed uint64, name, validErr string, valid bool) {
		if c, ok := decodeMeasuredCell(data); ok {
			if re := appendMeasuredCell(nil, c); !bytes.Equal(re, data) {
				t.Fatalf("accepted measured payload %x re-encodes to %x", data, re)
			}
		}
		if c, ok := decodeStaticCell(data); ok {
			if re := appendStaticCell(nil, c); !bytes.Equal(re, data) {
				t.Fatalf("accepted static payload %x re-encodes to %x", data, re)
			}
		}

		c := randomMeasured(seed, name, validErr, valid)
		enc := appendMeasuredCell(nil, c)
		got, ok := decodeMeasuredCell(enc)
		if !ok || !sameMeasured(got, c) {
			t.Fatalf("measured round trip: ok=%v got %+v, want %+v", ok, got, c)
		}
		if _, ok := decodeMeasuredCell(enc[:len(enc)-1]); ok {
			t.Fatal("truncated measured payload accepted")
		}
		if _, ok := decodeStaticCell(enc); ok {
			t.Fatal("measured payload accepted as static")
		}
		s := core.StaticCellResult{Static: c.Counts, Flash: int(int32(seed))}
		encS := appendStaticCell(nil, s)
		if gotS, ok := decodeStaticCell(encS); !ok || gotS != s {
			t.Fatalf("static round trip: ok=%v got %+v, want %+v", ok, gotS, s)
		}
		if _, ok := decodeMeasuredCell(encS); ok {
			t.Fatal("static payload accepted as measured")
		}
	})
}

// Each malformation the decoder must refuse, applied to a valid payload.
func TestCellCodecRejectsMalformed(t *testing.T) {
	good := appendMeasuredCell(nil, randomMeasured(7, "ab", "cd", true))
	validAt := measuredFixedLen - 9 + len("ab")
	for _, tc := range []struct {
		name   string
		mutate func(p []byte) []byte
	}{
		{"short", func(p []byte) []byte { return p[:len(p)-1] }},
		{"long", func(p []byte) []byte { return append(p, 0) }},
		{"bad tag", func(p []byte) []byte { p[0] = tagStatic; return p }},
		{"valid byte 2", func(p []byte) []byte { p[validAt] = 2; return p }},
		{"name past end", func(p []byte) []byte { p[measuredFixedLen-17] = 0xff; return p }},
		{"huge name length", func(p []byte) []byte { p[measuredFixedLen-10] = 0x80; return p }},
		{"err length past end", func(p []byte) []byte { p[len(p)-10] = 3; return p }},
	} {
		p := tc.mutate(append([]byte(nil), good...))
		if c, ok := decodeMeasuredCell(p); ok {
			t.Errorf("%s: accepted as %+v", tc.name, c)
		}
	}
	if c, ok := decodeMeasuredCell(good); !ok || c.Name != "ab" || c.ValidErr != "cd" || !c.Valid {
		t.Fatalf("unmutated payload: ok=%v %+v", ok, c)
	}
}
