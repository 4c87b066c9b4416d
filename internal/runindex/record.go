package runindex

// Record is one cataloged run: the cache key that names it, the config
// dimensions sweeps vary (the indexed columns), and the summary metrics
// pareto/sensitivity queries read. Records are intentionally flat and
// fixed-size apart from the three strings, so the on-disk row frame and
// the in-memory arena copy are both cheap.
//
// The row frame follows the packstore needle idiom: a magic and length
// delimit it at the head of a needle's payload, and a CRC over the
// record catches corruption, which drops the row as a miss instead of
// serving bad dimensions.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/sim"
)

// Record is one run's row in the catalog.
type Record struct {
	Key    string `json:"key"`
	Bench  string `json:"bench"`
	Policy string `json:"policy"`

	// Indexed numeric dimensions. Trigger is the policy's engagement
	// threshold or controller setpoint in Celsius (0 = uncontrolled).
	Trigger  float64 `json:"trigger,omitempty"`
	Kp       float64 `json:"kp,omitempty"`
	Ki       float64 `json:"ki,omitempty"`
	Interval float64 `json:"interval,omitempty"` // DTM sampling period, cycles
	Stride   float64 `json:"stride,omitempty"`   // configured thermal stride (0 = auto)
	Cores    float64 `json:"cores,omitempty"`
	Insts    float64 `json:"insts,omitempty"` // committed-instruction budget

	// Summary metrics (not indexed; rendered by queries and the cores sweep).
	IPC         float64 `json:"ipc"`
	AvgPower    float64 `json:"avg_power"`
	AvgDuty     float64 `json:"avg_duty"`
	AvgFreq     float64 `json:"avg_freq,omitempty"`
	EmergFrac   float64 `json:"emerg_frac"`
	StressFrac  float64 `json:"stress_frac"`
	Engagements uint64  `json:"engagements"`
	Cycles      uint64  `json:"cycles"`
}

// Dim names one indexed numeric dimension.
type Dim uint8

const (
	DimTrigger Dim = iota
	DimKp
	DimKi
	DimInterval
	DimStride
	DimCores
	DimInsts
	NumDims
)

var dimNames = [NumDims]string{"trigger", "kp", "ki", "interval", "stride", "cores", "insts"}

func (d Dim) String() string { return dimNames[d] }

// ParseDim resolves a dimension name.
func ParseDim(name string) (Dim, error) {
	for d, n := range dimNames {
		if n == name {
			return Dim(d), nil
		}
	}
	return 0, fmt.Errorf("runindex: unknown dimension %q", name)
}

// DimValue returns one indexed dimension's value.
func (r *Record) DimValue(d Dim) float64 {
	switch d {
	case DimTrigger:
		return r.Trigger
	case DimKp:
		return r.Kp
	case DimKi:
		return r.Ki
	case DimInterval:
		return r.Interval
	case DimStride:
		return r.Stride
	case DimCores:
		return r.Cores
	default:
		return r.Insts
	}
}

// FromResult flattens one completed solo run into its catalog row.
func FromResult(key string, res *sim.Result) Record {
	return Record{
		Key:    key,
		Bench:  res.Benchmark,
		Policy: res.Policy,

		Trigger:  res.Dims.Trigger,
		Kp:       res.Dims.Kp,
		Ki:       res.Dims.Ki,
		Interval: float64(res.Dims.Interval),
		Stride:   float64(res.Dims.Stride),
		Cores:    float64(res.Dims.Cores),
		Insts:    float64(res.Dims.Insts),

		IPC:         res.IPC,
		AvgPower:    res.AvgChipPower,
		AvgDuty:     res.AvgDuty,
		EmergFrac:   res.EmergencyFrac(),
		StressFrac:  res.StressFrac(),
		Engagements: res.Engagements,
		Cycles:      res.Cycles,
	}
}

// FromMulticore flattens one multicore run into its catalog row. Duty
// and frequency are the per-core averages; the caller supplies the
// synthetic cache key (multicore runs have no solo cache entry).
func FromMulticore(key string, insts uint64, res *sim.MulticoreResult) Record {
	var duty, freq float64
	if n := len(res.PerCore); n > 0 {
		for i := range res.PerCore {
			duty += res.PerCore[i].AvgDuty
			freq += res.PerCore[i].AvgFreq
		}
		duty /= float64(n)
		freq /= float64(n)
	}
	return Record{
		Key:    key,
		Bench:  res.Workload,
		Policy: res.Policy,

		Cores: float64(res.Cores),
		Insts: float64(insts),

		IPC:        res.IPC,
		AvgPower:   res.AvgChipPower,
		AvgDuty:    duty,
		AvgFreq:    freq,
		EmergFrac:  res.EmergencyFrac(),
		StressFrac: res.StressFrac(),
		Cycles:     res.Cycles,
	}
}

// Row frame layout (little-endian), at the head of a needle's payload
// and followed there by the result's JSON, if any:
//
//	magic      uint32  0x54414352 ("RCAT")
//	payloadLen uint32
//	crc        uint32  IEEE CRC32 over the payload
//	payload    version byte, three length-prefixed strings, fixed numerics
//
// JSON never starts with the magic's first byte 'R', so a payload with
// no frame (stored by an older build) is told apart by its first four
// bytes.
const (
	frameMagic     = 0x54414352
	frameHeader    = 4 + 4 + 4
	recordVersion  = 1
	numFixedFields = 15 // 13 float64 + 2 uint64
)

// Frame returns the needle payload that stores rec's row and body, the
// result's JSON, as one append: rec's row frame followed by body. A rec
// with no key gets the empty frame, which carries no row: it marks a
// body that is not a result.
func Frame(rec Record, body []byte) []byte {
	buf := make([]byte, frameHeader, frameHeader+256+len(rec.Key)+len(body))
	binary.LittleEndian.PutUint32(buf, frameMagic) // length 0, CRC 0
	if rec.Key != "" {
		buf = appendRecord(buf[:0], &rec)
	}
	return append(buf, body...)
}

// Body returns the result bytes of a needle payload: what follows its
// row frame, or the whole payload if it has none.
func Body(payload []byte) []byte {
	if len(payload) >= frameHeader && binary.LittleEndian.Uint32(payload) == frameMagic {
		if n := int64(binary.LittleEndian.Uint32(payload[4:8])); n <= int64(len(payload)-frameHeader) {
			return payload[frameHeader+n:]
		}
	}
	return payload
}

// decodeFrame reads the row framed at the head of key's needle payload.
// framed reports that head starts with the frame magic; ok that the
// frame is whole, holds its CRC and is empty (rec has no key) or
// encodes a row for key.
func decodeFrame(key string, head []byte) (rec Record, framed, ok bool) {
	if len(head) < 4 || binary.LittleEndian.Uint32(head) != frameMagic {
		return rec, false, false
	}
	body := Body(head)
	if len(body) == len(head) { // cut short
		return rec, true, false
	}
	p := head[frameHeader : len(head)-len(body)]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(head[8:12]) {
		return rec, true, false
	}
	if len(p) == 0 {
		return rec, true, true
	}
	// A frame copied under another key is not this needle's row.
	rec, ok = decodeRecord(p)
	return rec, true, ok && rec.Key == key
}

// appendRecord encodes r's row frame onto buf.
func appendRecord(buf []byte, r *Record) []byte {
	payloadLen := 1 + 3*2 + len(r.Key) + len(r.Bench) + len(r.Policy) + numFixedFields*8
	start := len(buf)
	need := start + frameHeader + payloadLen
	if cap(buf) >= need {
		buf = buf[:need]
		clear(buf[start:])
	} else {
		grown := make([]byte, need, 2*need)
		copy(grown, buf)
		buf = grown
	}
	b := buf[start:]
	binary.LittleEndian.PutUint32(b[0:4], frameMagic)
	binary.LittleEndian.PutUint32(b[4:8], uint32(payloadLen))
	p := b[frameHeader:]
	p[0] = recordVersion
	off := 1
	putStr := func(s string) {
		binary.LittleEndian.PutUint16(p[off:], uint16(len(s)))
		off += 2
		copy(p[off:], s)
		off += len(s)
	}
	putStr(r.Key)
	putStr(r.Bench)
	putStr(r.Policy)
	putF := func(f float64) {
		binary.LittleEndian.PutUint64(p[off:], math.Float64bits(f))
		off += 8
	}
	putF(r.Trigger)
	putF(r.Kp)
	putF(r.Ki)
	putF(r.Interval)
	putF(r.Stride)
	putF(r.Cores)
	putF(r.Insts)
	putF(r.IPC)
	putF(r.AvgPower)
	putF(r.AvgDuty)
	putF(r.AvgFreq)
	putF(r.EmergFrac)
	putF(r.StressFrac)
	binary.LittleEndian.PutUint64(p[off:], r.Engagements)
	off += 8
	binary.LittleEndian.PutUint64(p[off:], r.Cycles)
	binary.LittleEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(p))
	return buf
}

// decodeRecord parses one frame payload. A false return means the
// payload is structurally or semantically invalid (quarantine it).
func decodeRecord(p []byte) (Record, bool) {
	var r Record
	if len(p) < 1+3*2+numFixedFields*8 || p[0] != recordVersion {
		return r, false
	}
	off := 1
	getStr := func() (string, bool) {
		if off+2 > len(p) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if off+n > len(p) {
			return "", false
		}
		s := string(p[off : off+n])
		off += n
		return s, true
	}
	var ok bool
	if r.Key, ok = getStr(); !ok || r.Key == "" {
		return r, false
	}
	if r.Bench, ok = getStr(); !ok {
		return r, false
	}
	if r.Policy, ok = getStr(); !ok {
		return r, false
	}
	if len(p)-off != numFixedFields*8 {
		return r, false
	}
	getF := func() float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		return f
	}
	r.Trigger = getF()
	r.Kp = getF()
	r.Ki = getF()
	r.Interval = getF()
	r.Stride = getF()
	r.Cores = getF()
	r.Insts = getF()
	r.IPC = getF()
	r.AvgPower = getF()
	r.AvgDuty = getF()
	r.AvgFreq = getF()
	r.EmergFrac = getF()
	r.StressFrac = getF()
	r.Engagements = binary.LittleEndian.Uint64(p[off:])
	off += 8
	r.Cycles = binary.LittleEndian.Uint64(p[off:])
	return r, true
}
