package report

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/profile"
)

// The cell payload codec (cellstore.Version 3): a fixed field order
// with no field names and no reflection, every number eight bytes
// little-endian.
//
//	measured: 'M' | Model.Cycles LatencyS AvgPowerW EnergyJ PeakPowerW |
//	          Meas.LatencyS EnergyJ AvgPowerW PeakPowerW | Meas.Reps |
//	          Counts.F I M B | len(Name) Name | Valid | len(ValidErr) ValidErr
//	static:   'S' | Static.F I M B | Flash
//
// Floats travel as their IEEE-754 bits, so a loaded cell equals the
// computed one bit for bit, NaN payloads, ±Inf and −0 included; ints
// travel as two's-complement int64, Valid as one byte 0 or 1, and each
// string as its byte length followed by its bytes verbatim. The
// decoders accept exactly what the encoders produce: a wrong tag, a
// short or long buffer, a Valid byte other than 0 or 1, a string
// length past the end of the buffer, or an int this platform cannot
// hold is rejected, and the cell reads as a miss.
const (
	tagMeasured = 'M'
	tagStatic   = 'S'
)

// measuredFixedLen is a measured payload's size without its strings:
// the tag, nine floats, Reps, four counts, two lengths and Valid.
const measuredFixedLen = 1 + 9*8 + 8 + 4*8 + 8 + 1 + 8

// staticLen is a static payload's size: the tag, four counts, Flash.
const staticLen = 1 + 4*8 + 8

// appendMeasuredCell appends c's payload to b.
func appendMeasuredCell(b []byte, c core.MeasuredCellResult) []byte {
	b = append(b, tagMeasured)
	for _, f := range [...]float64{
		c.Model.Cycles, c.Model.LatencyS, c.Model.AvgPowerW, c.Model.EnergyJ, c.Model.PeakPowerW,
		c.Meas.LatencyS, c.Meas.EnergyJ, c.Meas.AvgPowerW, c.Meas.PeakPowerW,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Meas.Reps))
	b = appendCounts(b, c.Counts)
	b = appendString(b, c.Name)
	valid := byte(0)
	if c.Valid {
		valid = 1
	}
	return appendString(append(b, valid), c.ValidErr)
}

// appendStaticCell appends c's payload to b.
func appendStaticCell(b []byte, c core.StaticCellResult) []byte {
	b = appendCounts(append(b, tagStatic), c.Static)
	return binary.LittleEndian.AppendUint64(b, uint64(c.Flash))
}

func appendCounts(b []byte, c profile.Counts) []byte {
	for _, v := range [...]uint64{c.F, c.I, c.M, c.B} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// decodeMeasuredCell decodes a payload appendMeasuredCell produced.
func decodeMeasuredCell(p []byte) (core.MeasuredCellResult, bool) {
	var c core.MeasuredCellResult
	if len(p) == 0 || p[0] != tagMeasured {
		return c, false
	}
	d := cellDecoder{b: p[1:], ok: true}
	c.Model.Cycles = d.f64()
	c.Model.LatencyS = d.f64()
	c.Model.AvgPowerW = d.f64()
	c.Model.EnergyJ = d.f64()
	c.Model.PeakPowerW = d.f64()
	c.Meas.LatencyS = d.f64()
	c.Meas.EnergyJ = d.f64()
	c.Meas.AvgPowerW = d.f64()
	c.Meas.PeakPowerW = d.f64()
	c.Meas.Reps = d.intVal()
	c.Counts = d.counts()
	c.Name = d.str()
	switch d.u8() {
	case 0:
	case 1:
		c.Valid = true
	default:
		return core.MeasuredCellResult{}, false
	}
	c.ValidErr = d.str()
	if !d.done() {
		return core.MeasuredCellResult{}, false
	}
	return c, true
}

// decodeStaticCell decodes a payload appendStaticCell produced.
func decodeStaticCell(p []byte) (core.StaticCellResult, bool) {
	if len(p) == 0 || p[0] != tagStatic {
		return core.StaticCellResult{}, false
	}
	d := cellDecoder{b: p[1:], ok: true}
	c := core.StaticCellResult{Static: d.counts()}
	c.Flash = d.intVal()
	if !d.done() {
		return core.StaticCellResult{}, false
	}
	return c, true
}

// cellDecoder reads a payload front to back. A read past the end
// clears ok and yields a zero value, so a decoder checks done once, at
// the end.
type cellDecoder struct {
	b  []byte
	ok bool
}

func (d *cellDecoder) take(n uint64) []byte {
	if !d.ok || n > uint64(len(d.b)) {
		d.ok = false
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *cellDecoder) u64() uint64 {
	if p := d.take(8); d.ok {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *cellDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// done reports whether every read succeeded and consumed the payload
// exactly.
func (d *cellDecoder) done() bool { return d.ok && len(d.b) == 0 }

func (d *cellDecoder) u8() byte {
	if p := d.take(1); d.ok {
		return p[0]
	}
	return 0
}

// intVal reads an int64 and rejects one this platform's int cannot
// hold.
func (d *cellDecoder) intVal() int {
	v := int64(d.u64())
	if int64(int(v)) != v {
		d.ok = false
	}
	return int(v)
}

func (d *cellDecoder) counts() profile.Counts {
	var c profile.Counts
	c.F = d.u64()
	c.I = d.u64()
	c.M = d.u64()
	c.B = d.u64()
	return c
}

func (d *cellDecoder) str() string { return string(d.take(d.u64())) }
