package congest

// Differential tests for the word-packed wire fast path: the pack / unpack
// pair each built-in kind's layout derives must agree bit-for-bit with the
// generic MarshalWire / UnmarshalWire oracle — on valid messages (both the
// encode and the decode half), on degenerate configurations and on every
// checked-in fuzz corpus entry (whatever the generic path refuses, the
// packed path must refuse too). TestKindWidthFormulas checks the derived
// widths against formulas written out independently of the layouts.

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// configure installs the field-width configuration (never transmitted) a
// configured kind needs before decoding, mirroring the engine's
// receive-side setup: its Bound, and its Slots where it has one. Other
// kinds are left untouched. The wire tests and fuzzers use bound = 4n and
// slots = n unless a case states its own.
func configure(m WireMessage, bound, slots int) {
	if c, ok := m.(configured); ok {
		b, s := c.config()
		*b = bound
		if s != nil {
			*s = slots
		}
	}
}

// packedCases returns, for network size n, representative valid messages of
// every built-in kind, with fields at the extremes of their declared ranges.
// Configured kinds use bound = 4n and slots = n so the values line up with
// configure(m, 4n, n) on the decode side.
func packedCases(n int) []WireMessage {
	b := 4 * n
	var sum int
	if w := 2 * BitsForID(n); w >= 63 {
		sum = int(^uint64(0) >> 1) // any non-negative value fits
	} else {
		sum = 1<<uint(w) - 1
	}
	return []WireMessage{
		&msgActivate{Dist: 0},
		&msgActivate{Dist: n - 1},
		&msgChild{},
		&msgEccReport{Max: n / 2},
		&msgToken{Step: 4 * n},
		&msgWave{Tau: b, Delta: 0},
		&msgWave{Tau: 0, Delta: b},
		&msgMax{Value: b, Witness: n - 1},
		&msgBcast{Value: b / 2},
		&msgNear{Dist: 2*n - 1, Src: 0},
		&msgSum{Sum: 0},
		&msgSum{Sum: sum},
		&msgPair{Src: n - 1, Dist: 2*n - 1},
		&msgSrcMax{Src: 0, Max: 2*n - 1},
		&msgWDist{Dist: b, Bound: b},
		&msgWMax{Value: b, Witness: n - 1, Bound: b},
		&msgAdj{ID: n - 1},
		&msgSide{Side: 1},
		&msgSide{Side: 0},
		&msgCutSum{Sum: b, Bound: b},
		&msgSkelUp{Slot: n - 1, Val: b + 1, Slots: n, Bound: b},
		&msgSkelDown{Slot: 0, Val: 0, Slots: n, Bound: b},
	}
}

// TestPackedWireMatchesGeneric checks both halves of the fast path against
// the generic oracle for every built-in kind across a sweep of network
// sizes: pack must reproduce the exact bits MarshalWire lays down (tag
// included), and unpack must recover the exact message UnmarshalWire does.
func TestPackedWireMatchesGeneric(t *testing.T) {
	covered := map[Kind]bool{}
	for _, n := range []int{1, 2, 3, 7, 40, 1000, 65536} {
		for _, m := range packedCases(n) {
			k := m.WireKind()
			s, ok := m.(schemaMessage)
			if !ok {
				t.Fatalf("n=%d %v: packedCases holds a kind without a layout", n, k)
			}
			covered[k] = true

			// Generic oracle: tag, then the payload fields.
			var w Writer
			w.Reset(n)
			w.WriteUint(uint64(k), KindBits)
			m.MarshalWire(&w)
			if w.Err() != nil {
				t.Fatalf("n=%d %v: oracle rejects valid case %+v: %v", n, k, m, w.Err())
			}
			if w.Len() > 64 {
				continue // fast path not applicable at this size
			}

			payload, width, pok := s.layout(n).pack()
			if !pok {
				t.Fatalf("n=%d %v: pack refuses valid case %+v", n, k, m)
			}
			if KindBits+width != w.Len() {
				t.Fatalf("n=%d %v: packed width %d+%d, generic %d bits", n, k, KindBits, width, w.Len())
			}
			word := uint64(k) | payload<<KindBits
			if w.Len() < 64 {
				word &= 1<<uint(w.Len()) - 1
			}
			if got := w.words[0]; got != word {
				t.Fatalf("n=%d %v %+v: packed word %#x, generic bits %#x", n, k, m, word, got)
			}

			// Decode half: unpack vs UnmarshalWire from the same bits.
			gm := NewKindMessage(k)
			configure(gm, 4*n, n)
			r := Reader{N: n, words: w.words, off: KindBits, end: w.Len()}
			gm.UnmarshalWire(&r)
			if r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("n=%d %v: oracle decode of own encoding failed: err=%v rem=%d", n, k, r.Err(), r.Remaining())
			}
			pm := NewKindMessage(k)
			configure(pm, 4*n, n)
			if !pm.(schemaMessage).layout(n).unpack(payload, width) {
				t.Fatalf("n=%d %v: unpack refuses its own packing of %+v", n, k, m)
			}
			if !reflect.DeepEqual(gm, pm) {
				t.Fatalf("n=%d %v: generic decode %+v, packed decode %+v", n, k, gm, pm)
			}
		}
	}
	for _, k := range RegisteredKinds() {
		if _, isSchema := NewKindMessage(k).(schemaMessage); isSchema && !covered[k] {
			t.Errorf("%v declares a layout but packedCases has no case for it", k)
		}
	}
}

// corpusEntry is one FuzzWireMessage input: (kind byte, network size, raw
// payload bytes).
type corpusEntry struct {
	name string
	kind uint8
	n    uint16
	data []byte
}

// loadWireCorpus parses the checked-in fuzz corpus files under
// testdata/fuzz/FuzzWireMessage (Go fuzz v1 format: one typed literal per
// line, matching the harness signature byte/uint16/[]byte).
func loadWireCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzWireMessage")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	var entries []corpusEntry
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("reading corpus file %s: %v", f.Name(), err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 4 || lines[0] != "go test fuzz v1" {
			t.Fatalf("corpus file %s: unexpected format (%d lines)", f.Name(), len(lines))
		}
		e := corpusEntry{name: f.Name()}
		for _, line := range lines[1:] {
			switch {
			case strings.HasPrefix(line, "byte("):
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "byte("), ")"))
				if err != nil || len(s) != 1 {
					t.Fatalf("corpus file %s: bad byte line %q: %v", f.Name(), line, err)
				}
				e.kind = s[0]
			case strings.HasPrefix(line, "uint16("):
				v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "uint16("), ")"), 10, 16)
				if err != nil {
					t.Fatalf("corpus file %s: bad uint16 line %q: %v", f.Name(), line, err)
				}
				e.n = uint16(v)
			case strings.HasPrefix(line, "[]byte("):
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
				if err != nil {
					t.Fatalf("corpus file %s: bad []byte line %q: %v", f.Name(), line, err)
				}
				e.data = []byte(s)
			default:
				t.Fatalf("corpus file %s: unrecognized line %q", f.Name(), line)
			}
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found")
	}
	return entries
}

// TestPackedWireCorpusDifferential replays every checked-in FuzzWireMessage
// corpus entry (plus the in-code seeds of that harness) through both decode
// paths: when the generic oracle decodes cleanly, unpack must accept and
// produce the identical message — and re-pack to the identical bits; when
// the oracle refuses, unpack must refuse too, so the engine's fallback
// keeps error identity.
func TestPackedWireCorpusDifferential(t *testing.T) {
	entries := loadWireCorpus(t)
	// The harness's f.Add seeds live in code, not testdata; replay them too
	// so every kind is exercised even before a fuzz run has grown the
	// directory.
	seeds := []corpusEntry{
		{"seed-wave", uint8(KindWave), 64, []byte{0xaa, 0x05}},
		{"seed-near", uint8(KindNear), 300, []byte{0xff, 0xff, 0x01}},
		{"seed-wdist", uint8(KindWDist), 40, []byte{0x10, 0x27}},
		{"seed-raw", uint8(KindRaw), 9, []byte{0x00, 0x11, 0x22, 0x33}},
		{"seed-child", uint8(KindChild), 2, []byte{}},
		{"seed-adj", uint8(KindAdj), 40, []byte{0x1f}},
		{"seed-side", uint8(KindSide), 12, []byte{0x01}},
		{"seed-cutsum-ok", uint8(KindCutSum), 40, []byte{0x7f}},
		{"seed-cutsum-range", uint8(KindCutSum), 40, []byte{0xff}},
		{"seed-cutsum-trunc", uint8(KindCutSum), 1000, []byte{}},
		{"seed-skelup-ok", uint8(KindSkelUp), 40, []byte{0x83, 0x01}},
		{"seed-skelup-range", uint8(KindSkelUp), 40, []byte{0xff, 0xff}},
		{"seed-skelup-trunc", uint8(KindSkelUp), 1000, []byte{0x05}},
		{"seed-skeldown-ok", uint8(KindSkelDown), 40, []byte{0x00, 0x00}},
		{"seed-skeldown-range", uint8(KindSkelDown), 40, []byte{0xfc, 0xff}},
		{"seed-skeldown-trunc", uint8(KindSkelDown), 1000, []byte{}},
	}
	entries = append(entries, seeds...)
	checked := 0
	for _, e := range entries {
		k := Kind(e.kind % numKinds)
		if !Registered(k) {
			continue
		}
		n := int(e.n)
		if n < 1 {
			n = 1
		}
		gm := NewKindMessage(k)
		if _, isSchema := gm.(schemaMessage); !isSchema {
			continue // dynamic-payload kinds (raw) have no fast path
		}
		width := 8 * len(e.data)
		if KindBits+width > 64 {
			continue // the engine never takes the fast path at this size
		}
		configure(gm, 4*n, n)
		r := Reader{N: n, words: wordsFromBytes(e.data), off: 0, end: width}
		gm.UnmarshalWire(&r)
		clean := r.Err() == nil && r.Remaining() == 0

		var payload uint64
		for i, b := range e.data {
			payload |= uint64(b) << (8 * uint(i))
		}
		pm := NewKindMessage(k)
		configure(pm, 4*n, n)
		got := pm.(schemaMessage).layout(n).unpack(payload, width)
		if got != clean {
			t.Errorf("%s (%v, n=%d, % x): generic clean=%v, unpack=%v", e.name, k, n, e.data, clean, got)
			continue
		}
		if clean {
			if !reflect.DeepEqual(gm, pm) {
				t.Errorf("%s (%v, n=%d): generic decode %+v, packed decode %+v", e.name, k, n, gm, pm)
			}
			rp, rw, rok := pm.(schemaMessage).layout(n).pack()
			if !rok || rw != width || rp != payload {
				t.Errorf("%s (%v, n=%d): re-pack (%#x, %d, %v) of clean decode, want (%#x, %d, true)",
					e.name, k, n, rp, rw, rok, payload, width)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no corpus entry exercised the packed path")
	}
	t.Logf("differential-checked %d corpus entries", checked)
}

// kindWidthFormulas is the independent width oracle: every built-in kind
// whose width is a function of n alone, with its encoded length (tag
// included) written out by hand rather than derived from its layout.
var kindWidthFormulas = map[Kind]func(n int) int{
	KindActivate:  func(n int) int { return KindBits + BitsForID(n) },
	KindChild:     func(n int) int { return KindBits },
	KindEccReport: func(n int) int { return KindBits + BitsForID(n) },
	KindToken:     func(n int) int { return KindBits + BitsForID(4*n+1) },
	KindWave:      func(n int) int { return KindBits + 2*BitsForID(4*n+1) },
	KindMax:       func(n int) int { return KindBits + BitsForID(4*n+1) + BitsForID(n) },
	KindBcast:     func(n int) int { return KindBits + BitsForID(4*n+1) },
	KindNear:      func(n int) int { return KindBits + BitsForID(2*n) + BitsForID(n) },
	KindSum:       func(n int) int { return KindBits + 2*BitsForID(n) },
	KindPair:      func(n int) int { return KindBits + BitsForID(n) + BitsForID(2*n) },
	KindSrcMax:    func(n int) int { return KindBits + BitsForID(n) + BitsForID(2*n) },
	KindAdj:       func(n int) int { return KindBits + BitsForID(n) },
	KindSide:      func(n int) int { return KindBits + 1 },
}

// widthSweep is the network-size sweep of the width and compliance tests.
var widthSweep = []int{1, 2, 3, 7, 40, 1000, 65536, 1 << 24}

// TestKindWidthFormulas checks the fixed-width table derived from the
// layouts against the hand-written formulas, and that exactly the kinds
// whose bounds depend on n alone have an entry: configured kinds, raw and
// test kinds have none, since their widths vary per message.
func TestKindWidthFormulas(t *testing.T) {
	for _, k := range RegisteredKinds() {
		formula, fixed := kindWidthFormulas[k]
		for _, n := range widthSweep {
			got, ok := kindWidth(k, n)
			if ok != fixed {
				t.Fatalf("%v: fixed-width entry %v, formula table says %v", k, ok, fixed)
			}
			if fixed && got != formula(n) {
				t.Errorf("n=%d %v: derived width %d, formula %d", n, k, got, formula(n))
			}
		}
	}
	for k := range kindWidthFormulas {
		if !Registered(k) {
			t.Errorf("formula for unregistered kind %v", k)
		}
	}
}

// TestPackedWireDegenerateConfig runs both decode paths and both encode
// paths of every configured kind on degenerate configurations — a bound of
// -2, -1 or 0 (an empty or negative id range) and 0 or 1 slots: the packed
// path must accept exactly what the generic path accepts, and produce the
// same message or bits.
func TestPackedWireDegenerateConfig(t *testing.T) {
	const n = 40
	vals := []int{-1, 0, 1, 2}
	for _, k := range RegisteredKinds() {
		if _, ok := NewKindMessage(k).(configured); !ok {
			continue
		}
		for _, bound := range []int{-2, -1, 0} {
			for _, slots := range []int{0, 1} {
				// Decode: every payload of up to 8 bits.
				for width := 0; width <= 8; width++ {
					for p := uint64(0); p < 1<<uint(width); p++ {
						gm := NewKindMessage(k)
						configure(gm, bound, slots)
						r := Reader{N: n, words: []uint64{p}, end: width}
						gm.UnmarshalWire(&r)
						clean := r.Err() == nil && r.Remaining() == 0
						pm := NewKindMessage(k)
						configure(pm, bound, slots)
						got := pm.(schemaMessage).layout(n).unpack(p, width)
						if got != clean {
							t.Fatalf("%v bound=%d slots=%d payload %#x/%d: generic clean=%v (err %v), unpack=%v",
								k, bound, slots, p, width, clean, r.Err(), got)
						}
						if clean && !reflect.DeepEqual(gm, pm) {
							t.Fatalf("%v bound=%d slots=%d: generic decode %+v, packed decode %+v", k, bound, slots, gm, pm)
						}
					}
				}
				// Encode: every field value in vals.
				for _, v0 := range vals {
					for _, v1 := range vals {
						m := NewKindMessage(k)
						configure(m, bound, slots)
						l := m.(schemaMessage).layout(n)
						*l.v0 = v0
						if l.v1 != nil {
							*l.v1 = v1
						}
						var w Writer
						w.Reset(n)
						m.MarshalWire(&w)
						payload, width, ok := l.pack()
						if ok != (w.Err() == nil) {
							t.Fatalf("%v bound=%d slots=%d %+v: generic err %v, pack ok=%v", k, bound, slots, m, w.Err(), ok)
						}
						if ok && (width != w.Len() || (width > 0 && payload != w.words[0])) {
							t.Fatalf("%v bound=%d slots=%d %+v: pack (%#x, %d), generic %d bits", k, bound, slots, m, payload, width, w.Len())
						}
					}
				}
			}
		}
	}
}

// TestPackWireRefusesOutOfRange: a field outside its declared range makes
// pack refuse, so the engine falls back to the generic encoder, which
// rejects the message with the canonical range error.
func TestPackWireRefusesOutOfRange(t *testing.T) {
	const n = 16
	b := 4 * n
	for _, m := range []WireMessage{
		&msgActivate{Dist: -1},
		&msgActivate{Dist: n},
		&msgEccReport{Max: n},
		&msgToken{Step: 4*n + 1},
		&msgWave{Tau: 4*n + 1},
		&msgMax{Value: 0, Witness: n},
		&msgBcast{Value: -1},
		&msgNear{Dist: 2 * n},
		&msgSum{Sum: -1},
		&msgPair{Src: n},
		&msgSrcMax{Src: 0, Max: 2 * n},
		&msgAdj{ID: n},
		&msgCutSum{Sum: b + 1, Bound: b},
		&msgWDist{Dist: b + 1, Bound: b},
		&msgWMax{Value: 0, Witness: n, Bound: b},
		&msgSkelUp{Slot: n, Slots: n, Bound: b},
		&msgSkelDown{Val: b + 2, Slots: n, Bound: b},
	} {
		if _, _, ok := m.(schemaMessage).layout(n).pack(); ok {
			t.Errorf("%v %+v: pack accepted an out-of-range field", m.WireKind(), m)
		}
		var w Writer
		w.Reset(n)
		m.MarshalWire(&w)
		if w.Err() == nil {
			t.Errorf("%v %+v: generic encoder accepted an out-of-range field", m.WireKind(), m)
		}
	}
}
