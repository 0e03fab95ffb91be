package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"graphitti/internal/agraph"
)

// FuzzFactSet: facts cut from arbitrary bytes — every target kind, names
// of any bytes, rule codes, IDs, XML nodes and Vias up to 2^64−1 — encode
// into a set that decodes to them, in order, and ends where the set does.
// Every prefix of the set decodes to the facts that end within it and no
// more, so a decoder given a set never reads past it; and the input
// itself, read as a set, decodes without a panic to facts that re-encode
// to themselves (a uvarint written longer than it needs decodes, so the
// bytes may differ).
func FuzzFactSet(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 8)
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append(append(append([]byte{0}, ones...), ones...), append(ones, ones...)...))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 'g', 'o', 3, 'a', '/', 0xff, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		facts, rules := factsFrom(raw)
		var set []byte
		var ends []int
		for i, pf := range facts {
			set = appendFact(set, rules[i], pf)
			ends = append(ends, len(set))
		}
		for k := 0; k <= len(set); k++ {
			i := 0
			for g := range factSet(set[:k]).all {
				if i == len(facts) {
					t.Fatalf("the set's first %d bytes decode to more than its %d facts: %+v", k, len(facts), g)
				}
				if g.rule != rules[i] || g.target != facts[i].Target || g.via != facts[i].Via {
					t.Fatalf("fact %d of the set's first %d bytes decodes to %+v, want rule %d and %+v", i, k, g, rules[i], facts[i])
				}
				if g.code != string(facts[i].Target.AppendCode(nil)) {
					t.Fatalf("fact %d: target code %q, want %q", i, g.code, facts[i].Target.AppendCode(nil))
				}
				i++
			}
			if want := countEnded(ends, k); i != want {
				t.Fatalf("the set's first %d bytes decode to %d facts, want %d", k, i, want)
			}
		}
		for s := factSet(raw); s != ""; {
			g, n := readFact(s)
			if n == 0 {
				break
			}
			again := appendFact(nil, g.rule, PackedFact{Target: g.target, Via: g.via})
			if h, m := readFact(factSet(again)); m != len(again) || h.rule != g.rule || h.target != g.target || h.via != g.via {
				t.Fatalf("%q decodes to %+v, which encodes to %q", s[:n], g, again)
			}
			s = s[n:]
		}
	})
}

// countEnded returns how many of the ascending ends are at most k.
func countEnded(ends []int, k int) int {
	n := 0
	for n < len(ends) && ends[n] <= k {
		n++
	}
	return n
}

// factsFrom cuts facts from raw, at most 64: per fact a kind byte, an
// 8-byte rule code and, by kind, an 8-byte ID (and XML node) or two
// length-prefixed name halves, then an 8-byte Via; short input reads as
// zeros.
func factsFrom(raw []byte) ([]PackedFact, []uint64) {
	next := func(n int) []byte {
		b := make([]byte, n)
		raw = raw[copy(b, raw):]
		return b
	}
	word := func() uint64 { return binary.LittleEndian.Uint64(next(8)) }
	name := func() string { return string(next(int(next(1)[0]) % 32)) }
	var facts []PackedFact
	var rules []uint64
	for len(raw) > 0 && len(facts) < 64 {
		kind := agraph.NodeKind(next(1)[0] % 4)
		rule := word()
		var target agraph.NodeRef
		switch kind {
		case agraph.ContentNode:
			target = agraph.Content(word(), word())
		case agraph.ReferentNode:
			target = agraph.Referent(word())
		case agraph.TermNode:
			target = agraph.Term(name(), name())
		case agraph.ObjectNode:
			target = agraph.Object(name(), name())
		}
		facts = append(facts, PackedFact{Target: target, Via: word()})
		rules = append(rules, rule)
	}
	return facts, rules
}
