package congest

// This file defines the typed wire format every CONGEST message is encoded
// into. The engine never trusts a declared message size: each outbound
// message is marshalled into a packed bit arena, and all bandwidth
// accounting (Metrics.Bits, Metrics.MaxEdgeBits, bandwidth-violation
// errors, the cut-traffic transcripts of the lower-bound reductions) is
// derived from the encoded length. A message on the wire is
//
//	[ kind tag : KindBits bits ][ payload : message-specific bits ]
//
// Every built-in kind declares its payload once, as a layout: at most two
// fields, each an id in [0, bound) of BitsForID(bound) bits or a
// fixed-width counter, with bounds that are functions of n (the network
// size) or of per-message configuration known a priori (a distance bound,
// a slot count). The generic codec, the single-word packed codec, the
// declared size and the fixed-width table are all derived from that one
// declaration, so they cannot disagree; every message is O(log n) bits —
// the CONGEST premise, made literal. External kinds implement WireMessage
// (and optionally BitsDeclarer) by hand and always take the generic path.
// DESIGN.md ("Wire format") tabulates the encoding of every registered
// kind.

import (
	"fmt"
	"math/bits"
)

// Kind identifies a wire-message type. The tag is transmitted (and charged)
// with every message: a real network needs it to dispatch the payload, so
// the accounting includes it.
type Kind uint8

// KindBits is the width of the kind tag on the wire.
const KindBits = 5

// numKinds is the size of the kind space (tags must fit in KindBits bits).
const numKinds = 1 << KindBits

// The message kinds shipped with this package. Kinds 20..31 are free for
// external programs (see RegisterKind and the qcongest facade).
const (
	kindInvalid   Kind = iota
	KindActivate       // bfs.go: BFS activation / max-id flood (one id)
	KindChild          // bfs.go, approx.go: "you are my parent" (no payload)
	KindEccReport      // bfs.go: subtree max depth toward the root
	KindToken          // walk.go: DFS token step counter
	KindWave           // wave.go: (tau', delta) wave message
	KindMax            // aggregate.go: (value, witness) max convergecast
	KindBcast          // aggregate.go: root value broadcast
	KindNear           // ssp.go: (dist, src) nearest-member flood
	KindSum            // ssp.go: partial sum convergecast
	KindPair           // ssp.go: (src rank, dist) multi-source BFS pair
	KindSrcMax         // ssp.go: (src rank, subtree max) pipelined convergecast
	KindRaw            // wire.go: opaque filler of a declared width (tests, capacity probes)
	KindWDist          // weighted.go: Bellman–Ford weighted-distance relaxation
	KindWMax           // weighted.go: weighted max convergecast (value, witness)
	KindAdj            // triangle.go: adjacency announcement (one id)
	KindSide           // cut.go: mark-flood side bit
	KindCutSum         // cut.go: crossing-weight sum convergecast (Bound-ranged)
	KindSkelUp         // apsp.go: (slot, value) skeleton-vector gather toward the root
	KindSkelDown       // apsp.go: (slot, value) skeleton-vector broadcast down the tree
)

// WireMessage is a message that can be encoded to and decoded from the wire
// format. MarshalWire must write exactly the bits UnmarshalWire reads; the
// engine charges the encoded length (tag included) against the edge
// bandwidth. Field widths are derived from Writer.N / Reader.N, which the
// engine sets to the network size.
type WireMessage interface {
	WireKind() Kind
	MarshalWire(w *Writer)
	UnmarshalWire(r *Reader)
}

// BitsDeclarer is an optional interface for messages that additionally
// declare their size by formula (the pre-wire-format convention). The
// declared value is never used for accounting; under WithStrictAccounting
// the engine cross-checks it against the encoded length and fails the run
// on mismatch, which turns the declared formulas into verified
// documentation.
type BitsDeclarer interface {
	DeclaredBits(n int) int
}

// kindInfo is one registry entry.
type kindInfo struct {
	name string
	new  func() WireMessage
}

var kindRegistry [numKinds]kindInfo

// RegisterKind registers a message kind with a human-readable name and a
// factory producing a zero value to decode into. Registering an already-
// registered kind panics (programmer error). The engine refuses to transmit
// unregistered kinds.
//
// The registry is read without synchronization by engine workers, so all
// registration must happen before any network runs — in practice from
// init functions, the convention every kind in this repository follows.
func RegisterKind(k Kind, name string, factory func() WireMessage) {
	if k == kindInvalid || int(k) >= numKinds {
		panic(fmt.Sprintf("congest: kind %d out of range", k))
	}
	if kindRegistry[k].name != "" {
		panic(fmt.Sprintf("congest: kind %d registered twice (%s, %s)", k, kindRegistry[k].name, name))
	}
	kindRegistry[k] = kindInfo{name: name, new: factory}
}

// Registered reports whether k has been registered.
func Registered(k Kind) bool {
	return int(k) < numKinds && kindRegistry[k].name != ""
}

// NewKindMessage returns a zero message of the registered kind k, or nil.
func NewKindMessage(k Kind) WireMessage {
	if !Registered(k) {
		return nil
	}
	return kindRegistry[k].new()
}

// String returns the registered name of the kind.
func (k Kind) String() string {
	if Registered(k) {
		return kindRegistry[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// RegisteredKinds returns all registered kinds in ascending order (used by
// the round-trip tests and diagnostics).
func RegisteredKinds() []Kind {
	var out []Kind
	for k := 1; k < numKinds; k++ {
		if kindRegistry[k].name != "" {
			out = append(out, Kind(k))
		}
	}
	return out
}

// Writer packs values into a little-endian bit stream over uint64 words.
// The zero value is ready after Reset. The engine keeps one Writer per
// worker as the round arena: encoded messages accumulate back to back and
// the words are recycled every round, so steady-state encoding allocates
// nothing.
type Writer struct {
	// N is the network size; codecs derive their field widths from it.
	N int

	words []uint64
	bits  int // write cursor
	err   error
}

// Reset clears the writer for a new round, recycling the word storage, and
// sets the network size used for field widths.
func (w *Writer) Reset(n int) {
	used := (w.bits + 63) / 64
	clear(w.words[:used])
	w.bits = 0
	w.N = n
	w.err = nil
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.bits }

// Err returns the first encoding error (a value too wide for its field).
func (w *Writer) Err() error { return w.err }

// WriteUint appends the low `width` bits of v. Values that do not fit in
// the field are an encoding error: an honest encoder must never truncate.
func (w *Writer) WriteUint(v uint64, width int) {
	if w.err != nil {
		return
	}
	if width < 0 || width > 64 {
		w.err = fmt.Errorf("congest: field width %d out of [0,64]", width)
		return
	}
	if width < 64 && v>>uint(width) != 0 {
		w.err = fmt.Errorf("congest: value %d overflows %d-bit field", v, width)
		return
	}
	off := w.bits
	w.bits += width
	for need := (w.bits + 63) / 64; len(w.words) < need; {
		w.words = append(w.words, 0)
	}
	if width == 0 {
		return
	}
	i, sh := off/64, uint(off%64)
	w.words[i] |= v << sh
	if sh+uint(width) > 64 {
		w.words[i+1] |= v >> (64 - sh)
	}
}

// writeRaw appends the low `width` bits of v with no validation: the packed
// encode fast path, where the caller (Outbox.encode) already knows
// 0 < width <= 64 and that v has no bits at or above width. One straddling
// pair of word ORs replaces the per-field cursor walk of WriteUint.
func (w *Writer) writeRaw(v uint64, width int) {
	off := w.bits
	w.bits += width
	for need := (w.bits + 63) / 64; len(w.words) < need; {
		w.words = append(w.words, 0)
	}
	i, sh := off/64, uint(off%64)
	w.words[i] |= v << sh
	if sh+uint(width) > 64 {
		w.words[i+1] |= v >> (64 - sh)
	}
}

// WriteCount appends a non-negative counter in `width` bits. Negative
// values are an encoding error (reported as such, rather than as the
// huge-value overflow a bare uint64 conversion would produce).
func (w *Writer) WriteCount(v, width int) {
	if w.err != nil {
		return
	}
	if v < 0 {
		w.err = fmt.Errorf("congest: negative value %d in %d-bit counter field", v, width)
		return
	}
	w.WriteUint(uint64(v), width)
}

// WriteID appends a value in [0, bound) using BitsForID(bound) bits — the
// canonical encoding of "one of bound things" (vertex ids, distances,
// counters with a known cap). Negative values are an encoding error.
func (w *Writer) WriteID(v, bound int) {
	if w.err != nil {
		return
	}
	if v < 0 {
		w.err = fmt.Errorf("congest: negative value %d in id field", v)
		return
	}
	if v >= bound {
		w.err = fmt.Errorf("congest: value %d out of id range [0,%d)", v, bound)
		return
	}
	w.WriteUint(uint64(v), BitsForID(bound))
}

// view returns a read-only view of bits [off, off+nbits) of the stream. The
// returned view stays valid even if the writer's storage later grows (it
// references the backing array as of now, which already holds those bits).
func (w *Writer) view(off, nbits int) WireView {
	lo := off / 64
	hi := (off + nbits + 63) / 64
	return WireView{words: w.words[lo:hi], off: int32(off % 64), bits: int32(nbits)}
}

// Reader consumes a bit stream written by Writer. Reading past the end is
// an error (recorded, subsequent reads return zero).
type Reader struct {
	// N is the network size; codecs derive their field widths from it.
	N int

	words []uint64
	off   int // absolute read cursor in bits
	end   int // absolute end of the message in bits
	err   error
}

// Err returns the first decoding error (a read past the message end).
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.end - r.off }

// ReadUint consumes `width` bits and returns them as a value.
func (r *Reader) ReadUint(width int) uint64 {
	if r.err != nil {
		return 0
	}
	if width < 0 || width > 64 {
		r.err = fmt.Errorf("congest: field width %d out of [0,64]", width)
		return 0
	}
	if r.off+width > r.end {
		r.err = fmt.Errorf("congest: read of %d bits overruns message (%d left)", width, r.end-r.off)
		return 0
	}
	if width == 0 {
		return 0
	}
	i, sh := r.off/64, uint(r.off%64)
	v := r.words[i] >> sh
	if sh+uint(width) > 64 {
		v |= r.words[i+1] << (64 - sh)
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	r.off += width
	return v
}

// ReadID consumes an id field written by WriteID with the same bound. A
// decoded value outside [0, bound) is a decoding error — an honest encoder
// cannot produce it (WriteID validates the range), so it proves the payload
// is corrupt; reporting it here means malformed messages surface as Decode
// errors instead of leaking out-of-range ids into programs.
func (r *Reader) ReadID(bound int) int {
	v := int(r.ReadUint(BitsForID(bound)))
	if r.err == nil && v >= bound {
		r.err = fmt.Errorf("congest: decoded value %d out of id range [0,%d)", v, bound)
		return 0
	}
	return v
}

// WireView is a read-only window onto one encoded message (kind tag
// included) inside an engine arena. Views handed to observers are only
// valid for the duration of the callback round; copy the bits out (e.g.
// into a bitstring) to retain them.
// The struct is deliberately compact: every message buffered by the engine
// carries one.
type WireView struct {
	words []uint64
	off   int32 // bit offset of the message start within words[0]
	bits  int32 // encoded length, tag included
}

// Len returns the encoded length in bits, kind tag included.
func (v WireView) Len() int { return int(v.bits) }

// Bit returns bit i of the encoded message (0 = first bit of the tag).
func (v WireView) Bit(i int) bool {
	if i < 0 || i >= int(v.bits) {
		return false
	}
	p := int(v.off) + i
	return v.words[p/64]&(1<<(uint(p)%64)) != 0
}

// Kind decodes the kind tag.
func (v WireView) Kind() Kind {
	var r Reader
	v.payloadReader(&r, 0)
	r.off = int(v.off) // include the tag
	return Kind(r.ReadUint(KindBits))
}

// payloadReader points r at the payload (after the kind tag).
func (v WireView) payloadReader(r *Reader, n int) {
	*r = Reader{N: n, words: v.words, off: int(v.off) + KindBits, end: int(v.off) + int(v.bits)}
}

// word returns the whole encoded message — kind tag in the low KindBits,
// payload above it — as one value. Only valid when Len() <= 64; the decode
// fast path checks that before calling.
func (v WireView) word() uint64 {
	sh := uint(v.off)
	w := v.words[0] >> sh
	if int(v.off)+int(v.bits) > 64 {
		w |= v.words[1] << (64 - sh)
	}
	if v.bits < 64 {
		w &= 1<<uint(v.bits) - 1
	}
	return w
}

// BitsForID returns the number of bits needed to name one of n values:
// 0 when there is at most one value (nothing to distinguish), otherwise
// ceil(log2 n).
func BitsForID(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// layout is a built-in kind's payload declaration: at most two fields,
// field 0 in the lowest bits. Each field is an id in [0, bound) written in
// BitsForID(bound) bits, except that the single field of a counter layout
// is a non-negative counter of exactly b0 bits. The struct is four words —
// the most the compiler keeps in registers rather than memory — which is
// why a counter is marked in the otherwise unused b1.
type layout struct {
	v0, v1 *int // field values; nil for an absent field (v1 nil when v0 is)
	b0, b1 int  // id bounds; b0 is a counter's width, b1 = isCounter marks one
}

// isCounter in b1 of a one-field layout marks field 0 as a counter.
const isCounter = -1

// id declares a one-field layout: an id in [0, bound).
func id(v *int, bound int) layout { return layout{v0: v, b0: bound} }

// idPair declares a two-field layout of ids, v0 in the low bits.
func idPair(v0 *int, b0 int, v1 *int, b1 int) layout {
	return layout{v0: v0, b0: b0, v1: v1, b1: b1}
}

// counter declares a one-field layout: a non-negative counter of width bits.
func counter(v *int, width int) layout { return layout{v0: v, b0: width, b1: isCounter} }

// schemaMessage is a built-in kind: its layout at network size n is its
// whole codec. The engine dispatches on this interface to the packed
// single-word path; the kind's MarshalWire and UnmarshalWire forward to the
// generic codec below.
type schemaMessage interface {
	WireMessage
	layout(n int) layout
}

// configured marks a built-in kind whose field bounds read per-message
// configuration (never transmitted, known a priori by every node like n)
// instead of n alone. It returns that configuration: the distance Bound,
// and the slot count where the kind has one (nil otherwise). Such a kind
// has no entry in the fixed-width table.
type configured interface {
	config() (bound, slots *int)
}

// hasCounter reports whether field 0 is a counter rather than an id.
func (l layout) hasCounter() bool { return l.v1 == nil && l.b1 == isCounter }

// bits returns the encoded length, kind tag included: the derived
// DeclaredBits of the kind.
func (l layout) bits() int {
	w := KindBits
	switch {
	case l.v0 == nil:
	case l.hasCounter():
		w += l.b0
	default:
		w += BitsForID(l.b0)
	}
	if l.v1 != nil {
		w += BitsForID(l.b1)
	}
	return w
}

// marshal is the generic encoder: the Writer validates every field, so an
// out-of-range value fails with the canonical WriteID/WriteCount error.
func (l layout) marshal(w *Writer) {
	switch {
	case l.v0 == nil:
		return
	case l.hasCounter():
		w.WriteCount(*l.v0, l.b0)
	default:
		w.WriteID(*l.v0, l.b0)
	}
	if l.v1 != nil {
		w.WriteID(*l.v1, l.b1)
	}
}

// unmarshal is the generic decoder; ReadID rejects out-of-range ids.
func (l layout) unmarshal(r *Reader) {
	switch {
	case l.v0 == nil:
		return
	case l.hasCounter():
		*l.v0 = int(r.ReadUint(l.b0))
	default:
		*l.v0 = r.ReadID(l.b0)
	}
	if l.v1 != nil {
		*l.v1 = r.ReadID(l.b1)
	}
}

// pack returns the payload as one value (bit-identical to marshal) and its
// width, for messages whose tag plus payload fit one uint64. ok is false
// for anything marshal would reject and for wider messages; the engine then
// takes the generic path, which produces the canonical encoding or error.
func (l layout) pack() (payload uint64, width int, ok bool) {
	const maxWidth = 64 - KindBits
	switch {
	case l.v1 != nil:
		x0, x1, w0 := *l.v0, *l.v1, BitsForID(l.b0)
		width = w0 + BitsForID(l.b1)
		if x0 < 0 || x0 >= l.b0 || x1 < 0 || x1 >= l.b1 || width > maxWidth {
			return 0, 0, false
		}
		return uint64(x0) | uint64(x1)<<uint(w0&63), width, true
	case l.v0 == nil:
		return 0, 0, true
	case l.hasCounter():
		x := *l.v0
		if x < 0 || l.b0 > maxWidth || uint64(x)>>uint(l.b0) != 0 {
			return 0, 0, false
		}
		return uint64(x), l.b0, true
	default:
		x := *l.v0
		width = BitsForID(l.b0)
		if x < 0 || x >= l.b0 || width > maxWidth {
			return 0, 0, false
		}
		return uint64(x), width, true
	}
}

// unpack is the inverse of pack for a payload of width bits (payload below
// 1<<width, width at most 64-KindBits). It accepts exactly the payloads
// unmarshal decodes cleanly: on false the message is untouched and the
// engine's generic fallback reports the canonical error.
func (l layout) unpack(payload uint64, width int) bool {
	switch {
	case l.v1 != nil:
		w0 := uint(BitsForID(l.b0)) & 63 // BitsForID(int) <= 63; the mask tells the compiler
		x0, x1 := int(payload&(1<<w0-1)), int(payload>>w0)
		if width != int(w0)+BitsForID(l.b1) || x0 >= l.b0 || x1 >= l.b1 {
			return false
		}
		*l.v0, *l.v1 = x0, x1
	case l.v0 == nil:
		return width == 0
	case l.hasCounter():
		if width != l.b0 {
			return false
		}
		*l.v0 = int(payload)
	default:
		if width != BitsForID(l.b0) || int(payload) >= l.b0 {
			return false
		}
		*l.v0 = int(payload)
	}
	return true
}

// kindWidth returns the fixed-width table entry of kind k at network size
// n: the encoded length (tag included) shared by every message of the kind.
// ok is false for a kind without one — an external or dynamic-payload kind,
// or a configured kind, whose width depends on the message.
func kindWidth(k Kind, n int) (width int, ok bool) {
	m, isSchema := NewKindMessage(k).(schemaMessage)
	if _, cfg := m.(configured); !isSchema || cfg {
		return 0, false
	}
	return m.layout(n).bits(), true
}

// RawMessage is an opaque payload of a declared width: Width zero bits
// followed by nothing the receiver interprets. It exists for capacity
// probes and engine tests (bandwidth violations with real encoded sizes)
// and is the one shipped kind whose size is an input, not a function of n.
type RawMessage struct {
	Width int
}

// WireKind implements WireMessage.
func (m *RawMessage) WireKind() Kind { return KindRaw }

// MarshalWire implements WireMessage.
func (m *RawMessage) MarshalWire(w *Writer) {
	for left := m.Width; left > 0; left -= 64 {
		chunk := left
		if chunk > 64 {
			chunk = 64
		}
		w.WriteUint(0, chunk)
	}
}

// UnmarshalWire implements WireMessage.
func (m *RawMessage) UnmarshalWire(r *Reader) {
	m.Width = r.Remaining()
	for left := m.Width; left > 0; left -= 64 {
		chunk := left
		if chunk > 64 {
			chunk = 64
		}
		r.ReadUint(chunk)
	}
}

// DeclaredBits implements BitsDeclarer.
func (m *RawMessage) DeclaredBits(n int) int { return KindBits + m.Width }

func init() {
	RegisterKind(KindRaw, "raw", func() WireMessage { return new(RawMessage) })
}
