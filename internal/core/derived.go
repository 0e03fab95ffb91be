package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"graphitti/internal/agraph"
	"graphitti/internal/cow"
	"graphitti/internal/trace"
)

// Derived annotations are facts the propagation engine (internal/prop)
// materializes from committed annotations: annotation A's marks, terms
// and graph neighborhood imply that A also "annotates" other referents,
// objects, terms or annotations. Each fact carries full provenance — the
// rule that produced it, the source annotation, and a witness describing
// the propagation edge — so a reader can always trace a derived
// annotation back to its source.
//
// The store does not compute derived facts itself: the Propagator of the
// session's state (a rule set, set by Tx.SetPropagator) is consulted by
// the writer session (Tx), and its result is a step of the session,
// published with the mutation that caused it. A reader therefore never
// observes an annotation without its derived consequences, or a derived
// fact whose source is gone. Derived facts are recomputable from
// committed state, which is why the durable layer never logs them: only
// rules are durable ops, and recovery re-derives.

// DerivedFact is one materialized derived annotation as a reader sees it:
// the table stores it packed (see factSet) and builds this on read.
type DerivedFact struct {
	// Rule is the ID of the propagation rule that produced the fact.
	Rule string
	// Source is the committed annotation the fact was derived from.
	Source uint64
	// Target is what the source annotation is now derived onto: a
	// referent, an object, an ontology term, or another annotation's
	// content root.
	Target agraph.NodeRef
	// Witness names the propagation edge, e.g. "overlap ref3~ref17" or
	// "closure go/protease -> go/hydrolase".
	Witness string
}

// PackedFact is a derived fact as a propagator produces it, for its
// source annotation: it has no Source (the delta's or recompute's key
// says it) and no witness string. The witness is rendered when a reader
// asks for it, from Via and the view, and which form it takes follows
// from the target's kind, as each propagation edge has targets of one
// kind:
//
//   - a referent: "overlap ref<Via>~ref<target>";
//   - an annotation's content root: "shared ref<Via>";
//   - an object: "coreg ref<Via> in <Via's domain>";
//   - a term: "closure <ontology>/<term> -> <ancestor>", where
//     <ontology>/<term> is the source's ontology reference at position Via
//     of Annotation.Terms and the target is <ontology>/<ancestor>.
//
// The table stores a source's facts encoded, as one string (factSet).
type PackedFact struct {
	// Rule is the ID of the propagation rule that produced the fact.
	Rule string
	// Target is what the source annotation is derived onto.
	Target agraph.NodeRef
	// Via is what the witness is rendered from: one of the source's
	// referents, or the position of one of its ontology references.
	Via uint64
}

// Propagator computes derived facts for the store. Implementations are
// called by the writer session, against sealed (but unpublished) states
// of it; they must not call any Store mutation method, only View reads.
// A propagator is a value of the views that hold it (View.Propagator), so
// it must not change once set: a rule change sets another.
type Propagator interface {
	// Delta returns the updated derived sets of every source annotation
	// affected by the commit (deleted=false) or deletion (deleted=true)
	// of ann. pre is the session's state before the mutation; post is the
	// state it leaves. Each set is the string CanonicalFacts returns, for
	// post. An empty set removes the source's entry.
	// Returning nil means "no change". sp, when not nil, is the span the
	// delta runs under, for the propagator to attribute its work on.
	Delta(pre, post *View, ann *Annotation, deleted bool, sp *trace.Span) map[uint64]string
	// Recompute returns the complete derived map of a view from scratch,
	// each set the string CanonicalFacts returns for v.
	Recompute(v *View) map[uint64]string
	// RecomputeOnRegister reports whether registering a data object can
	// change derived facts (e.g. a co-registration rule is installed) —
	// when false, registrations skip the full recompute.
	RecomputeOnRegister() bool
	// RuleIDs returns the IDs of the rules the propagator's facts name,
	// ascending and each once. A stored fact names its rule by its place
	// in this list, so the list must not change.
	RuleIDs() []string
}

// derivedEntry is one source annotation's fact set, tagged with the
// derived epoch at which it was last (re)computed.
type derivedEntry struct {
	epoch uint64
	facts factSet
}

// factSet is one source's facts as the table stores them: one immutable
// string, in canonical order (rule, target, then witness as a string),
// no fact twice, each fact written as
//
//   - its rule's code, a uvarint: the rule's place in the view's rule
//     table (View.ruleIDs, its propagator's RuleIDs);
//   - its target's code (agraph.NodeRef.AppendCode): the kind byte, then
//     a uvarint ID (and XML node) or a length-prefixed name;
//   - Via, a uvarint.
//
// An overlap fact is about 6 bytes. A target's code is also its key in
// the target index, so a reader matches a fact to a target by comparing
// bytes, and decodes the facts it reads on the stack.
type factSet string

// storedFact is one fact of a factSet, decoded.
type storedFact struct {
	rule   uint64         // the rule's code
	target agraph.NodeRef // a term's or object's name is a substring of the set
	code   string         // the target's code: a substring of the set
	via    uint64
}

// appendFact appends f, whose rule's code is rule, to the encoded set b.
func appendFact(b []byte, rule uint64, f PackedFact) []byte {
	return binary.AppendUvarint(f.Target.AppendCode(binary.AppendUvarint(b, rule)), f.Via)
}

// readFact decodes the fact s starts with, and returns it and its length;
// n is 0 when s does not start with a well-formed fact.
func readFact(s factSet) (f storedFact, n int) {
	rule, n, ok := uvarintAt(s, 0)
	if !ok {
		return storedFact{}, 0
	}
	target, size := agraph.ReadCode(string(s[n:]))
	if size == 0 {
		return storedFact{}, 0
	}
	code := string(s[n : n+size])
	via, n, ok := uvarintAt(s, n+size)
	if !ok {
		return storedFact{}, 0
	}
	return storedFact{rule: rule, target: target, code: code, via: via}, n
}

// all visits the set's facts in order until yield returns false.
func (s factSet) all(yield func(storedFact) bool) {
	for s != "" {
		f, n := readFact(s)
		if n == 0 || !yield(f) {
			return
		}
		s = s[n:]
	}
}

// uvarintAt decodes the uvarint at off in s, and returns it and the offset
// after it; ok is false when s ends first or the value overflows 64 bits.
// The bytes it reads are copied on the stack.
func uvarintAt(s factSet, off int) (x uint64, next int, ok bool) {
	x, n := binary.Uvarint([]byte(s[off:min(off+binary.MaxVarintLen64, len(s))]))
	return x, off + n, n > 0
}

// Propagator returns the rule set v's derived table was computed under,
// or nil when there are no rules.
func (v *View) Propagator() Propagator { return v.propagator }

// Propagator returns the propagator of the session's state.
func (x *Tx) Propagator() Propagator {
	if x.pre == nil {
		return x.s.v.Load().propagator
	}
	return x.pre.propagator
}

// SetPropagator makes p — a rule set, nil for none — the propagator of the
// session's state, as one op, and recomputes the derived table over that
// state. The rule set and the table it produced are one value of the
// view, so every published view's derived table is the one its own
// propagator computes.
func (x *Tx) SetPropagator(p Propagator) {
	x.open().propagator = p
	x.seal().recomputeDerived()
	x.ops++
}

// recomputeDerived replaces nv's derived table, its rule table and its
// target index with its propagator's from-scratch recompute. nv is a
// sealed state of a session.
func (nv *View) recomputeDerived() {
	nv.derivedEpoch++
	t := cow.Table[derivedEntry]{}.Edit()
	var all map[uint64]string
	nv.ruleIDs = nil
	if nv.propagator != nil {
		nv.ruleIDs = nv.propagator.RuleIDs()
		all = nv.propagator.Recompute(nv)
	}
	for src, facts := range all {
		if facts != "" {
			t.Set(src, &derivedEntry{epoch: nv.derivedEpoch, facts: factSet(facts)})
		}
	}
	nv.derived = t.Table
	// Build the target index in table order: sources ascend, so every
	// target's source list grows by appends.
	idx := cow.Map[cow.Postings]{}.Edit()
	count := 0
	var targets []string
	t.Each(func(src uint64, e *derivedEntry) bool {
		var n int
		targets, n = e.facts.targets(targets[:0])
		for _, target := range targets {
			indexSource(&idx, target, src)
		}
		count += n
		return true
	})
	nv.derivedCount = count
	nv.derivedByTarget = idx.Map
}

// applyDerivedDelta folds a propagator delta into nv, updating the
// derived table and its target index together. nv is the sealed state
// the delta was computed against.
func (nv *View) applyDerivedDelta(delta map[uint64]string) {
	if len(delta) == 0 {
		return
	}
	nv.derivedEpoch++
	t := nv.derived.Edit()
	count := nv.derivedCount
	idx := nv.derivedByTarget.Edit()
	var had, has []string
	for src, s := range delta {
		facts := factSet(s)
		old := t.Get(src)
		if old != nil && old.facts == facts {
			// A delta usually re-confirms an affected neighbor's set whole:
			// it keeps its facts and index entries, and takes the epoch.
			t.Set(src, &derivedEntry{epoch: nv.derivedEpoch, facts: old.facts})
			continue
		}
		var n int
		had = had[:0]
		if old != nil {
			had, n = old.facts.targets(had)
			count -= n
		}
		has, n = facts.targets(has[:0])
		count += n
		// The index lists a source under each target it has a fact on, so
		// only a target the source gained or lost touches it.
		i, j := 0, 0
		for i < len(had) || j < len(has) {
			c := -1 // < 0: had[i] is lost; > 0: has[j] is gained; 0: kept
			switch {
			case i == len(had):
				c = 1
			case j < len(has):
				c = strings.Compare(had[i], has[j])
			}
			switch {
			case c < 0:
				unindexSource(&idx, had[i], src)
				i++
			case c > 0:
				indexSource(&idx, has[j], src)
				j++
			default:
				i++
				j++
			}
		}
		if facts == "" {
			t.Delete(src)
			continue
		}
		t.Set(src, &derivedEntry{epoch: nv.derivedEpoch, facts: facts})
	}
	nv.derived = t.Table
	nv.derivedCount = count
	nv.derivedByTarget = idx.Map
}

// targets appends the codes of the set's targets to dst, sorted, each
// once, and returns them with the set's fact count.
func (s factSet) targets(dst []string) ([]string, int) {
	n := 0
	for f := range s.all {
		dst = append(dst, f.code)
		n++
	}
	slices.Sort(dst)
	return slices.Compact(dst), n
}

// indexSource adds src to the source list of the target whose code is
// target.
func indexSource(idx *cow.MapEdit[cow.Postings], target string, src uint64) {
	idx.Update(target, func(srcs cow.Postings, _ bool) cow.Postings { return srcs.With(src) })
}

// unindexSource removes src from the source list of the target whose
// code is target, and the target with its last source.
func unindexSource(idx *cow.MapEdit[cow.Postings], target string, src uint64) {
	srcs, _ := idx.Get(target)
	if srcs = srcs.Without(src); srcs.Len() == 0 {
		idx.Delete(target)
		return
	}
	idx.Set(target, srcs)
}

// CanonicalFacts returns src's facts, as a propagator gathered them from
// v, in the form the table stores (factSet): sorted canonically — rule,
// target, then witness in string order — with a fact whose rendering
// repeats another's (a target reached through two of the source's own
// marks, say) dropped, and encoded; "" when there are none. Every fact's
// rule must be one of v's propagator's RuleIDs. facts is reordered in
// place.
func (v *View) CanonicalFacts(src uint64, facts []PackedFact) string {
	if len(facts) == 0 {
		return ""
	}
	slices.SortFunc(facts, func(a, b PackedFact) int {
		return cmp.Or(v.compareFacts(src, a, b), cmp.Compare(a.Via, b.Via))
	})
	facts = slices.CompactFunc(facts, func(a, b PackedFact) bool { return v.compareFacts(src, a, b) == 0 })
	var buf [256]byte
	b := buf[:0]
	for _, f := range facts {
		rule, ok := v.ruleCode(f.Rule)
		if !ok {
			panic(fmt.Sprintf("core: a fact of rule %q, which the view's propagator does not name", f.Rule))
		}
		b = appendFact(b, rule, f)
	}
	return string(b)
}

// compareFacts orders two of src's facts canonically: by rule, target,
// then witness as strings ("ref10" before "ref9"), the two witnesses
// printed on the stack.
func (v *View) compareFacts(src uint64, a, b PackedFact) int {
	if c := strings.Compare(a.Rule, b.Rule); c != 0 {
		return c
	}
	if c := a.Target.Compare(b.Target); c != 0 || a.Via == b.Via {
		return c
	}
	var x, y [64]byte
	return bytes.Compare(v.appendWitness(x[:0], src, a.Target, a.Via), v.appendWitness(y[:0], src, b.Target, b.Via))
}

// appendWitness appends the witness of src's fact onto target through via
// to b (see PackedFact).
func (v *View) appendWitness(b []byte, src uint64, target agraph.NodeRef, via uint64) []byte {
	switch target.Kind {
	case agraph.ReferentNode:
		to, _ := agraph.ReferentID(target)
		b = strconv.AppendUint(append(b, "overlap ref"...), via, 10)
		return strconv.AppendUint(append(b, "~ref"...), to, 10)
	case agraph.ContentNode:
		return strconv.AppendUint(append(b, "shared ref"...), via, 10)
	case agraph.ObjectNode:
		b = append(strconv.AppendUint(append(b, "coreg ref"...), via, 10), " in "...)
		if r := v.referents.Get(via); r != nil {
			b = append(b, r.Domain...)
		}
		return b
	case agraph.TermNode:
		tr := v.annotations.Get(src).term(int(via))
		b = append(append(append(append(b, "closure "...), tr.Ontology...), '/'), tr.TermID...)
		return append(append(b, " -> "...), target.Key()[len(tr.Ontology)+1:]...)
	}
	return b
}

// fact builds src's stored fact f as a reader sees it.
func (v *View) fact(src uint64, f storedFact) DerivedFact {
	var buf [64]byte
	return DerivedFact{Rule: v.ruleIDs[f.rule], Source: src, Target: f.target,
		Witness: string(v.appendWitness(buf[:0], src, f.target, f.via))}
}

// ruleCode returns the code of the rule named id in v's rule table.
func (v *View) ruleCode(id string) (uint64, bool) {
	i, ok := slices.BinarySearch(v.ruleIDs, id)
	return uint64(i), ok
}

// DerivedFrom returns the derived facts sourced at the given annotation,
// in canonical (rule, target, witness) order.
func (v *View) DerivedFrom(src uint64) []DerivedFact {
	e := v.derived.Get(src)
	if e == nil {
		return nil
	}
	var out []DerivedFact
	for f := range e.facts.all {
		out = append(out, v.fact(src, f))
	}
	return out
}

// HasDerivedFrom reports whether the annotation sources at least one
// derived fact of the given rule ("*" = any) — the query layer's
// derives-predicate probe. It renders no witness.
func (v *View) HasDerivedFrom(src uint64, rule string) bool {
	e := v.derived.Get(src)
	if e == nil || rule == "*" {
		return e != nil
	}
	code, ok := v.ruleCode(rule)
	if !ok {
		return false
	}
	for f := range e.facts.all {
		if f.rule == code {
			return true
		}
	}
	return false
}

// DerivedEach visits every derived fact — ascending source ID, canonical
// fact order within a source — until fn returns false.
func (v *View) DerivedEach(fn func(DerivedFact) bool) {
	v.derived.Each(func(src uint64, e *derivedEntry) bool {
		for f := range e.facts.all {
			if !fn(v.fact(src, f)) {
				return false
			}
		}
		return true
	})
}

// targetingEach visits the stored facts on target: the sources the
// target index lists for it, ascending, and each one's facts on it in
// canonical order, until fn returns false.
func (v *View) targetingEach(target agraph.NodeRef, fn func(src uint64, f storedFact) bool) {
	var buf [32]byte
	key := target.AppendCode(buf[:0])
	srcs, _ := v.derivedByTarget.Get(string(key))
	srcs.Each(func(src uint64) bool {
		for f := range v.derived.Get(src).facts.all {
			if f.code == string(key) && !fn(src, f) {
				return false
			}
		}
		return true
	})
}

// DerivedTargetingEach visits the derived facts whose target is the given
// node — the provenance of everything derived onto it — in (source, rule,
// witness) order until fn returns false. One target-index lookup, then
// the fact sets of the sources it lists: cost is the facts of those
// sources, not the table size, and the order is identical to a filtered
// DerivedEach scan.
func (v *View) DerivedTargetingEach(target agraph.NodeRef, fn func(DerivedFact) bool) {
	v.targetingEach(target, func(src uint64, f storedFact) bool { return fn(v.fact(src, f)) })
}

// HasDerivedTarget reports whether at least one derived fact of the
// given rule ("*" = any) targets the node — the query layer's
// provenance-predicate probe. Flat in the derived-table size.
func (v *View) HasDerivedTarget(target agraph.NodeRef, rule string) bool {
	if rule == "*" {
		var buf [32]byte
		srcs, _ := v.derivedByTarget.Get(string(target.AppendCode(buf[:0])))
		return srcs.Len() > 0
	}
	code, ok := v.ruleCode(rule)
	if !ok {
		return false
	}
	found := false
	v.targetingEach(target, func(_ uint64, f storedFact) bool {
		found = f.rule == code
		return !found
	})
	return found
}

// DerivedOnto returns the derived facts targeting an annotation's
// content node or any of its referents — the full provenance of what was
// propagated onto it. One target-index lookup per target, then the fact
// sets of the sources found, ascending: the output is in the global
// DerivedEach order (ascending source, canonical fact order within a
// source), byte-identical to a table scan.
func (v *View) DerivedOnto(annID uint64) ([]DerivedFact, error) {
	ann, err := v.Annotation(annID)
	if err != nil {
		return nil, err
	}
	targets := make([]agraph.NodeRef, 0, ann.NumReferents()+1)
	targets = append(targets, agraph.ContentRoot(annID))
	for refID := range ann.ReferentIDs {
		targets = append(targets, agraph.Referent(refID))
	}
	var srcs []uint64
	for _, target := range targets {
		var buf [32]byte // a numbered target's code is at most 21 bytes
		on, _ := v.derivedByTarget.Get(string(target.AppendCode(buf[:0])))
		on.Each(func(src uint64) bool {
			srcs = append(srcs, src)
			return true
		})
	}
	slices.Sort(srcs)
	var out []DerivedFact
	for _, src := range slices.Compact(srcs) {
		for f := range v.derived.Get(src).facts.all {
			if slices.Contains(targets, f.target) {
				out = append(out, v.fact(src, f))
			}
		}
	}
	return out, nil
}

// DerivedSourceEpoch returns the epoch at which the given source's fact
// set was last recomputed (0 when the source has no facts).
func (v *View) DerivedSourceEpoch(src uint64) uint64 {
	if e := v.derived.Get(src); e != nil {
		return e.epoch
	}
	return 0
}
