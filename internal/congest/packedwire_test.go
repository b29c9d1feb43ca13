package congest

// Differential tests for the word-packed wire fast path: the PackWire /
// UnpackWire pair of every registered kind must agree bit-for-bit with the
// generic MarshalWire / UnmarshalWire oracle — on valid messages (both the
// encode and the decode half) and on every checked-in fuzz corpus entry
// (whatever the generic path refuses, the packed path must refuse too).

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// configureBounds installs the configuration fields (never transmitted) that
// Bound-parameterized codecs need before decoding, mirroring the engine's
// receive-side setup and the FuzzWireMessage convention (bound = 4n).
func configureBounds(m WireMessage, n int) {
	bound := 4 * n
	switch wm := m.(type) {
	case *msgWDist:
		wm.Bound = bound
	case *msgWMax:
		wm.Bound = bound
	case *msgCutSum:
		wm.Bound = bound
	case *msgSkelUp:
		wm.Slots = n
		wm.Bound = bound
	case *msgSkelDown:
		wm.Slots = n
		wm.Bound = bound
	}
}

// packedCases returns, for network size n, representative valid messages of
// every kind that implements PackedWire, with fields at the extremes of
// their declared ranges. Bound-parameterized kinds use bound = 4n so the
// values line up with configureBounds on the decode side.
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
		&msgSide{Marked: true},
		&msgSide{Marked: false},
		&msgCutSum{Sum: b, Bound: b},
		&msgSkelUp{Slot: n - 1, Val: b + 1, Slots: n, Bound: b},
		&msgSkelDown{Slot: 0, Val: 0, Slots: n, Bound: b},
	}
}

// TestPackedWireMatchesGeneric checks both halves of the fast path against
// the generic oracle for every PackedWire kind across a sweep of network
// sizes: PackWire must reproduce the exact bits MarshalWire lays down (tag
// included), and UnpackWire must recover the exact message UnmarshalWire
// does.
func TestPackedWireMatchesGeneric(t *testing.T) {
	covered := map[Kind]bool{}
	for _, n := range []int{1, 2, 3, 7, 40, 1000, 65536} {
		for _, m := range packedCases(n) {
			k := m.WireKind()
			p, ok := m.(PackedWire)
			if !ok {
				t.Fatalf("n=%d %v: packedCases holds a kind without PackWire", n, k)
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

			payload, width, pok := p.PackWire(n)
			if !pok {
				t.Fatalf("n=%d %v: PackWire refuses valid case %+v", n, k, m)
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

			// Decode half: UnpackWire vs UnmarshalWire from the same bits.
			gm := NewKindMessage(k)
			configureBounds(gm, n)
			r := Reader{N: n, words: w.words, off: KindBits, end: w.Len()}
			gm.UnmarshalWire(&r)
			if r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("n=%d %v: oracle decode of own encoding failed: err=%v rem=%d", n, k, r.Err(), r.Remaining())
			}
			pm := NewKindMessage(k)
			configureBounds(pm, n)
			if !pm.(PackedWire).UnpackWire(n, payload, width) {
				t.Fatalf("n=%d %v: UnpackWire refuses its own packing of %+v", n, k, m)
			}
			if !reflect.DeepEqual(gm, pm) {
				t.Fatalf("n=%d %v: generic decode %+v, packed decode %+v", n, k, gm, pm)
			}
		}
	}
	for _, k := range RegisteredKinds() {
		if _, isPacked := NewKindMessage(k).(PackedWire); isPacked && !covered[k] {
			t.Errorf("%v implements PackedWire but packedCases has no case for it", k)
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
// paths: when the generic oracle decodes cleanly, UnpackWire must accept and
// produce the identical message — and re-pack to the identical bits; when
// the oracle refuses, UnpackWire must refuse too, so the engine's fallback
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
		if _, isPacked := gm.(PackedWire); !isPacked {
			continue // dynamic-payload kinds (raw) have no fast path
		}
		width := 8 * len(e.data)
		if KindBits+width > 64 {
			continue // the engine never takes the fast path at this size
		}
		configureBounds(gm, n)
		r := Reader{N: n, words: wordsFromBytes(e.data), off: 0, end: width}
		gm.UnmarshalWire(&r)
		clean := r.Err() == nil && r.Remaining() == 0

		var payload uint64
		for i, b := range e.data {
			payload |= uint64(b) << (8 * uint(i))
		}
		pm := NewKindMessage(k)
		configureBounds(pm, n)
		got := pm.(PackedWire).UnpackWire(n, payload, width)
		if got != clean {
			t.Errorf("%s (%v, n=%d, % x): generic clean=%v, UnpackWire=%v", e.name, k, n, e.data, clean, got)
			continue
		}
		if clean {
			if !reflect.DeepEqual(gm, pm) {
				t.Errorf("%s (%v, n=%d): generic decode %+v, packed decode %+v", e.name, k, n, gm, pm)
			}
			rp, rw, rok := pm.(PackedWire).PackWire(n)
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

// TestRegisterKindWidthTable checks the strict-accounting width table: every
// kind with a registered fixed width must report exactly DeclaredBits for a
// fresh message at that size, and the Bound-parameterized kinds must stay
// dynamic (no entry), since their width is per-message configuration.
func TestRegisterKindWidthTable(t *testing.T) {
	for _, n := range []int{1, 2, 40, 1000} {
		tab := packedWidths(n)
		for _, k := range RegisteredKinds() {
			m := NewKindMessage(k)
			d, sized := m.(BitsDeclarer)
			entry := int(tab[k])
			switch k {
			case KindWDist, KindWMax, KindCutSum, KindSkelUp, KindSkelDown, KindRaw:
				if entry != 0 {
					t.Errorf("n=%d %v: dynamic-width kind has table entry %d", n, k, entry)
				}
			default:
				if !sized {
					continue
				}
				if _, isPacked := m.(PackedWire); !isPacked {
					continue // e.g. test-registered kinds without a fast path
				}
				if want := d.DeclaredBits(n); entry != want && want <= 64 {
					t.Errorf("n=%d %v: width table %d, DeclaredBits %d", n, k, entry, want)
				}
			}
		}
	}
}

// TestPackWireRefusesOutOfRange: a field outside its declared range makes
// PackWire refuse, so the engine falls back to the generic encoder, which
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
		if _, _, ok := m.(PackedWire).PackWire(n); ok {
			t.Errorf("%v %+v: PackWire accepted an out-of-range field", m.WireKind(), m)
		}
		var w Writer
		w.Reset(n)
		m.MarshalWire(&w)
		if w.Err() == nil {
			t.Errorf("%v %+v: generic encoder accepted an out-of-range field", m.WireKind(), m)
		}
	}
}
