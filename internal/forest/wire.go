package forest

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/octant"
)

// Wire encoding of octants and positions for message payloads, in two
// versions selected by comm.WireCodec:
//
//   - WireV0 (legacy, the default): octants are 16 fixed bytes — x, y, z as
//     int32 and a fourth int32 packing level and dim — with int32 count
//     prefixes, little-endian.
//   - WireV1 (compact): a level byte followed by per-axis zigzag varints of
//     the coordinate delta to the previous octant, measured in units of each
//     octant's own anchor grid (coordinates shifted right by
//     MaxLevel-level).  Sorted Morton streams make these deltas tiny, so
//     most octants fit in 3-5 bytes.  Z is omitted entirely in 2D; counts
//     are uvarints; tree ids are delta-coded zigzag varints.
//
// Coordinates may be negative or exceed the root length (out-of-root
// octants are exchanged during balance), but in-range levels imply
// anchor-grid alignment, which v1 relies on; misaligned input is a caller
// bug and panics at encode time.

const octantWireSize = 16

func appendOctant(b []byte, o octant.Octant) []byte {
	b = comm.AppendInt32(b, o.X)
	b = comm.AppendInt32(b, o.Y)
	b = comm.AppendInt32(b, o.Z)
	// Mask both fields: a negative Level would otherwise sign-extend over
	// the Dim byte and corrupt it on decode.
	return comm.AppendInt32(b, int32(o.Level)&0xff|(int32(o.Dim)&0xff)<<8)
}

func octantAt(b []byte, off int) (octant.Octant, int) {
	x, off := comm.Int32At(b, off)
	y, off := comm.Int32At(b, off)
	z, off := comm.Int32At(b, off)
	ld, off := comm.Int32At(b, off)
	return octant.Octant{X: x, Y: y, Z: z, Level: int8(ld & 0xff), Dim: int8((ld >> 8) & 0xff)}, off
}

func appendOctants(b []byte, octs []octant.Octant) []byte {
	b = slices.Grow(b, 4+octantWireSize*len(octs))
	b = comm.AppendInt32(b, int32(len(octs)))
	for _, o := range octs {
		b = appendOctant(b, o)
	}
	return b
}

func octantsAt(b []byte, off int) ([]octant.Octant, int) {
	n, off := comm.Int32At(b, off)
	// Bound the count against the remaining bytes before allocating: a
	// corrupt prefix must not provoke a huge make or a decode overrun.
	if n < 0 || int(n) > (len(b)-off)/octantWireSize {
		panic(fmt.Sprintf("forest: octant count %d exceeds %d payload bytes", n, len(b)-off))
	}
	octs := make([]octant.Octant, n)
	for i := range octs {
		octs[i], off = octantAt(b, off)
	}
	return octs, off
}

func appendPos(b []byte, p Pos) []byte {
	b = comm.AppendInt32(b, p.Tree)
	b = comm.AppendInt32(b, p.X)
	b = comm.AppendInt32(b, p.Y)
	return comm.AppendInt32(b, p.Z)
}

func posAt(b []byte, off int) (Pos, int) {
	t, off := comm.Int32At(b, off)
	x, off := comm.Int32At(b, off)
	y, off := comm.Int32At(b, off)
	z, off := comm.Int32At(b, off)
	return Pos{Tree: t, X: x, Y: y, Z: z}, off
}

// WireCodec selects the payload encoding; it aliases comm.WireCodec so the
// forest API reads naturally while the type stays cycle-free in comm.
type WireCodec = comm.WireCodec

const (
	// WireV0 is the fixed-width legacy encoding (the zero value).
	WireV0 = comm.WireV0
	// WireV1 is the delta-Morton varint encoding.
	WireV1 = comm.WireV1
)

// ParseWireCodec parses a codec flag value ("v0"/"v1").
var ParseWireCodec = comm.ParseWireCodec

// coordShift is the right-shift that converts a coordinate of an octant at
// the given level into units of its own anchor grid.  Levels outside
// [0, MaxLevel] (possible in fuzzed or corrupt payloads — real octants
// always carry a valid level) get shift 0, which keeps the codec total: any
// coordinate is representable, just without the compression win.
func coordShift(level int8) uint {
	if level < 0 || level > octant.MaxLevel {
		return 0
	}
	return uint(octant.MaxLevel - level)
}

// appendCoordDelta appends cur as a zigzag varint delta from prev, both in
// anchor-grid units.
func appendCoordDelta(b []byte, prev, cur int32, s uint) []byte {
	if cur != cur>>s<<s {
		// In-range levels imply alignment to the octant's own side length;
		// hitting this means the caller built an invalid octant.
		panic("forest: wire v1 requires anchor-aligned coordinates")
	}
	return comm.AppendVarint(b, int64(cur>>s)-int64(prev>>s))
}

// coordFromDelta reconstructs a coordinate from its anchor-grid delta,
// rejecting values outside int32 range.  The bounds compare in shifted
// space: MinInt32 and MaxInt32>>s<<s are the exact extremes of encodable
// coordinates (MinInt32 is a multiple of every 2^s with s <= 30).
func coordFromDelta(prev int32, d int64, s uint) (int32, error) {
	v := int64(prev>>s) + d
	if v > int64(math.MaxInt32)>>s || v < int64(math.MinInt32)>>s {
		return 0, errors.New("forest: wire v1 coordinate out of int32 range")
	}
	return int32(v) << s, nil
}

// wireEnc builds one payload in the selected codec while metering the
// v0-equivalent size in raw, so the producer can report the compression
// ratio through comm.Stats.RawBytes.  The delta predictors (prev, prevTree)
// chain across every octant and tree id appended through the same encoder,
// so each payload needs its own encoder and the decoder must walk fields in
// the same order.
type wireEnc struct {
	b        []byte
	codec    WireCodec
	dim      int8
	prev     octant.Octant
	prevTree int32
	raw      int
}

func (e *wireEnc) count(n int) {
	e.raw += 4
	if e.codec == WireV1 {
		e.b = comm.AppendUvarint(e.b, uint64(n))
	} else {
		e.b = comm.AppendInt32(e.b, int32(n))
	}
}

func (e *wireEnc) tree(t int32) {
	e.raw += 4
	if e.codec == WireV1 {
		e.b = comm.AppendVarint(e.b, int64(t)-int64(e.prevTree))
		e.prevTree = t
	} else {
		e.b = comm.AppendInt32(e.b, t)
	}
}

func (e *wireEnc) oct(o octant.Octant) {
	e.raw += octantWireSize
	if e.codec != WireV1 {
		e.b = appendOctant(e.b, o)
		return
	}
	if o.Dim != e.dim {
		panic(fmt.Sprintf("forest: wire v1 payload mixes dim %d octant into dim %d stream", o.Dim, e.dim))
	}
	s := coordShift(o.Level)
	e.b = append(e.b, byte(o.Level))
	e.b = appendCoordDelta(e.b, e.prev.X, o.X, s)
	e.b = appendCoordDelta(e.b, e.prev.Y, o.Y, s)
	if e.dim == 3 {
		e.b = appendCoordDelta(e.b, e.prev.Z, o.Z, s)
	} else if o.Z != 0 {
		panic("forest: wire v1 2D stream carries nonzero Z")
	}
	e.prev = o
}

// wireDec walks one payload in the selected codec.  Errors are sticky: the
// first malformed field records err and pins the offset to the end, so
// callers can decode a whole payload and check err once.  Wire payloads on
// the rank-to-rank path come from our own encoder and a decode error there
// is a protocol bug (callers panic); the same decoder serves fuzzing, where
// the error return is the point.
type wireDec struct {
	b        []byte
	off      int
	codec    WireCodec
	dim      int8
	prev     octant.Octant
	prevTree int32
	err      error
}

func (d *wireDec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.b)
}

func (d *wireDec) more() bool { return d.err == nil && d.off < len(d.b) }

func (d *wireDec) i32() int32 {
	if len(d.b)-d.off < 4 {
		d.fail(errors.New("forest: truncated payload"))
		return 0
	}
	v, off := comm.Int32At(d.b, d.off)
	d.off = off
	return v
}

func (d *wireDec) uvarint() uint64 {
	v, off, err := comm.UvarintAt(d.b, d.off)
	if err != nil {
		d.fail(err)
		return 0
	}
	d.off = off
	return v
}

func (d *wireDec) varint() int64 {
	v, off, err := comm.VarintAt(d.b, d.off)
	if err != nil {
		d.fail(err)
		return 0
	}
	d.off = off
	return v
}

func (d *wireDec) tree() int32 {
	if d.codec != WireV1 {
		return d.i32()
	}
	v := int64(d.prevTree) + d.varint()
	if d.err != nil {
		return 0
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		d.fail(errors.New("forest: wire v1 tree id out of int32 range"))
		return 0
	}
	d.prevTree = int32(v)
	return d.prevTree
}

func (d *wireDec) oct() octant.Octant {
	if d.codec != WireV1 {
		if len(d.b)-d.off < octantWireSize {
			d.fail(errors.New("forest: truncated octant"))
			return octant.Octant{}
		}
		o, off := octantAt(d.b, d.off)
		d.off = off
		return o
	}
	if d.off >= len(d.b) {
		d.fail(errors.New("forest: truncated octant"))
		return octant.Octant{}
	}
	level := int8(d.b[d.off])
	d.off++
	s := coordShift(level)
	o := octant.Octant{Level: level, Dim: d.dim}
	var err error
	if o.X, err = coordFromDelta(d.prev.X, d.varint(), s); err == nil {
		if o.Y, err = coordFromDelta(d.prev.Y, d.varint(), s); err == nil && d.dim == 3 {
			o.Z, err = coordFromDelta(d.prev.Z, d.varint(), s)
		}
	}
	if err != nil {
		d.fail(err)
		return octant.Octant{}
	}
	if d.err != nil {
		return octant.Octant{}
	}
	d.prev = o
	return o
}

// minOct is a lower bound on the encoded size of one octant, used to bound
// counts against the remaining payload before allocating.
func (d *wireDec) minOct() int {
	if d.codec == WireV1 {
		if d.dim == 3 {
			return 4 // level byte + three 1-byte deltas
		}
		return 3
	}
	return octantWireSize
}

// count decodes an element count and bounds it against the remaining bytes
// assuming each element occupies at least min bytes.
func (d *wireDec) count(min int) int {
	var n int64
	if d.codec == WireV1 {
		v := d.uvarint()
		if v > math.MaxInt32 {
			d.fail(errors.New("forest: payload count out of range"))
			return 0
		}
		n = int64(v)
	} else {
		n = int64(d.i32())
	}
	if d.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > int64(len(d.b)-d.off)/int64(min)) {
		d.fail(fmt.Errorf("forest: payload count %d exceeds %d remaining bytes", n, len(d.b)-d.off))
		return 0
	}
	return int(n)
}

// keys decodes an octant list straight into packed keys, pre-sized from the
// decoded count (which d.count has already bounded against the remaining
// payload, so a corrupt prefix cannot provoke an oversized allocation).
func (d *wireDec) keys() []octant.Key {
	n := d.count(d.minOct())
	if d.err != nil {
		return nil
	}
	keys := make([]octant.Key, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		keys = append(keys, octant.KeyOf(d.oct()))
	}
	if d.err != nil {
		return nil
	}
	return keys
}

// EncodeKeyList encodes one self-contained key list, appending to b.
// Coordinates materialize from each key only at the wire boundary.  The v1
// form leads with a dim header byte so the list can be decoded without
// out-of-band context; inside a payload stream the producers carry dim
// themselves and use wireEnc directly.
func EncodeKeyList(b []byte, keys []octant.Key, codec WireCodec) []byte {
	if codec != WireV1 {
		b = slices.Grow(b, 4+octantWireSize*len(keys))
		b = comm.AppendInt32(b, int32(len(keys)))
		for _, k := range keys {
			b = appendOctant(b, k.Octant())
		}
		return b
	}
	dim := int8(2)
	if len(keys) > 0 {
		dim = keys[0].Dim()
	}
	e := wireEnc{b: append(b, byte(dim)), codec: codec, dim: dim}
	e.count(len(keys))
	for _, k := range keys {
		e.oct(k.Octant())
	}
	return e.b
}

// DecodeKeyList decodes a list written by EncodeKeyList, packing each
// octant as it leaves the wire, and returns it with the offset just past
// it.  Malformed input — truncated varints, counts exceeding the payload,
// out-of-range coordinates — is reported as an error, never a panic or an
// oversized allocation.
func DecodeKeyList(b []byte, codec WireCodec) ([]octant.Key, int, error) {
	if codec != WireV1 {
		if len(b) < 4 {
			return nil, 0, errors.New("forest: truncated octant list")
		}
		n, off := comm.Int32At(b, 0)
		if n < 0 || int(n) > (len(b)-4)/octantWireSize {
			return nil, 0, fmt.Errorf("forest: octant count %d exceeds %d payload bytes", n, len(b)-4)
		}
		keys := make([]octant.Key, n)
		for i := range keys {
			var o octant.Octant
			o, off = octantAt(b, off)
			keys[i] = octant.KeyOf(o)
		}
		return keys, off, nil
	}
	if len(b) == 0 {
		return nil, 0, errors.New("forest: truncated octant list")
	}
	dim := int8(b[0])
	if dim != 2 && dim != 3 {
		return nil, 0, fmt.Errorf("forest: octant list dim %d (want 2 or 3)", dim)
	}
	d := wireDec{b: b, off: 1, codec: codec, dim: dim}
	n := d.count(d.minOct())
	keys := make([]octant.Key, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		keys = append(keys, octant.KeyOf(d.oct()))
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return keys, d.off, nil
}
