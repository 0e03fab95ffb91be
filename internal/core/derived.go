package core

import (
	"bytes"
	"cmp"
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
// the table stores it packed (PackedFact) and builds this on read.
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

// PackedFact is a derived fact as the table stores it, under its source
// annotation: it has no Source (the table's key says it) and no witness
// string. The witness is rendered when a reader asks for it, from Via and
// the view, and which form it takes follows from the target's kind, as
// each propagation edge has targets of one kind:
//
//   - a referent: "overlap ref<Via>~ref<target>";
//   - an annotation's content root: "shared ref<Via>";
//   - an object: "coreg ref<Via> in <Via's domain>";
//   - a term: "closure <ontology>/<term> -> <ancestor>", where
//     <ontology>/<term> is the source's ontology reference at position Via
//     of Annotation.Terms and the target is <ontology>/<ancestor>.
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
	// state it leaves. Each set is in the form CanonicalFacts returns, for
	// post. A nil/empty slice removes the source's entry.
	// Returning nil means "no change". sp, when not nil, is the span the
	// delta runs under, for the propagator to attribute its work on.
	Delta(pre, post *View, ann *Annotation, deleted bool, sp *trace.Span) map[uint64][]PackedFact
	// Recompute returns the complete derived map of a view from scratch,
	// each set in the form CanonicalFacts returns for v.
	Recompute(v *View) map[uint64][]PackedFact
	// RecomputeOnRegister reports whether registering a data object can
	// change derived facts (e.g. a co-registration rule is installed) —
	// when false, registrations skip the full recompute.
	RecomputeOnRegister() bool
}

// derivedEntry is one source annotation's fact set — exact-length, in
// canonical order, no fact twice — tagged with the derived epoch at which
// it was last (re)computed.
type derivedEntry struct {
	epoch uint64
	facts []PackedFact
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

// recomputeDerived replaces nv's derived table (and its target index)
// with its propagator's from-scratch recompute. nv is a sealed state of a
// session.
func (nv *View) recomputeDerived() {
	nv.derivedEpoch++
	t := cow.Table[derivedEntry]{}.Edit()
	count := 0
	var all map[uint64][]PackedFact
	if nv.propagator != nil {
		all = nv.propagator.Recompute(nv)
	}
	for src, facts := range all {
		if len(facts) == 0 {
			continue
		}
		t.Set(src, &derivedEntry{epoch: nv.derivedEpoch, facts: facts})
		count += len(facts)
	}
	nv.derived = t.Table
	nv.derivedCount = count
	// Build the target index in table order: sources ascend, so every
	// target's source list grows by appends.
	idx := cow.Map[cow.Postings]{}.Edit()
	var targets []agraph.NodeRef
	t.Each(func(src uint64, e *derivedEntry) bool {
		targets = distinctTargets(targets[:0], e.facts)
		for _, target := range targets {
			indexSource(&idx, target, src)
		}
		return true
	})
	nv.derivedByTarget = idx.Map
}

// applyDerivedDelta folds a propagator delta into nv, updating the
// derived table and its target index together. nv is the sealed state
// the delta was computed against.
func (nv *View) applyDerivedDelta(delta map[uint64][]PackedFact) {
	if len(delta) == 0 {
		return
	}
	nv.derivedEpoch++
	t := nv.derived.Edit()
	count := nv.derivedCount
	idx := nv.derivedByTarget.Edit()
	var had, has []agraph.NodeRef
	for src, facts := range delta {
		had = had[:0]
		if old := t.Get(src); old != nil {
			had = distinctTargets(had, old.facts)
			count -= len(old.facts)
		}
		has = distinctTargets(has[:0], facts)
		// The index lists a source under each target it has a fact on, so
		// only a target the source gained or lost touches it. (A delta
		// usually re-confirms most of an affected neighbor's facts.)
		i, j := 0, 0
		for i < len(had) || j < len(has) {
			c := -1 // < 0: had[i] is lost; > 0: has[j] is gained; 0: kept
			switch {
			case i == len(had):
				c = 1
			case j < len(has):
				c = had[i].Compare(has[j])
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
		if len(facts) == 0 {
			t.Delete(src)
			continue
		}
		t.Set(src, &derivedEntry{epoch: nv.derivedEpoch, facts: facts})
		count += len(facts)
	}
	nv.derived = t.Table
	nv.derivedCount = count
	nv.derivedByTarget = idx.Map
}

// distinctTargets appends the targets of facts to dst, sorted, each once.
func distinctTargets(dst []agraph.NodeRef, facts []PackedFact) []agraph.NodeRef {
	for _, f := range facts {
		dst = append(dst, f.Target)
	}
	slices.SortFunc(dst, agraph.NodeRef.Compare)
	return slices.Compact(dst)
}

// indexSource adds src to target's source list.
func indexSource(idx *cow.MapEdit[cow.Postings], target agraph.NodeRef, src uint64) {
	idx.Update(target.String(), func(srcs cow.Postings, _ bool) cow.Postings { return srcs.With(src) })
}

// unindexSource removes src from target's source list, and the target
// with its last source.
func unindexSource(idx *cow.MapEdit[cow.Postings], target agraph.NodeRef, src uint64) {
	key := target.String()
	srcs, _ := idx.Get(key)
	if srcs = srcs.Without(src); srcs.Len() == 0 {
		idx.Delete(key)
		return
	}
	idx.Set(key, srcs)
}

// CanonicalFacts returns src's facts, as a propagator gathered them from
// v, in the form the table stores: sorted canonically — rule, target,
// then witness in string order — with a fact whose rendering repeats
// another's (a target reached through two of the source's own marks, say)
// dropped, in an exact-length copy; nil when there are none. facts is
// reordered in place.
func (v *View) CanonicalFacts(src uint64, facts []PackedFact) []PackedFact {
	if len(facts) == 0 {
		return nil
	}
	slices.SortFunc(facts, func(a, b PackedFact) int {
		return cmp.Or(v.compareFacts(src, a, b), cmp.Compare(a.Via, b.Via))
	})
	facts = slices.CompactFunc(facts, func(a, b PackedFact) bool { return v.compareFacts(src, a, b) == 0 })
	return slices.Clone(facts)
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
	return bytes.Compare(v.appendWitness(x[:0], src, a), v.appendWitness(y[:0], src, b))
}

// appendWitness appends the witness of src's fact f to b (see PackedFact).
func (v *View) appendWitness(b []byte, src uint64, f PackedFact) []byte {
	switch f.Target.Kind {
	case agraph.ReferentNode:
		to, _ := agraph.ReferentID(f.Target)
		b = strconv.AppendUint(append(b, "overlap ref"...), f.Via, 10)
		return strconv.AppendUint(append(b, "~ref"...), to, 10)
	case agraph.ContentNode:
		return strconv.AppendUint(append(b, "shared ref"...), f.Via, 10)
	case agraph.ObjectNode:
		b = append(strconv.AppendUint(append(b, "coreg ref"...), f.Via, 10), " in "...)
		if r := v.referents.Get(f.Via); r != nil {
			b = append(b, r.Domain...)
		}
		return b
	case agraph.TermNode:
		tr := v.annotations.Get(src).term(int(f.Via))
		b = append(append(append(append(b, "closure "...), tr.Ontology...), '/'), tr.TermID...)
		return append(append(b, " -> "...), f.Target.Key()[len(tr.Ontology)+1:]...)
	}
	return b
}

// fact builds src's stored fact f as a reader sees it.
func (v *View) fact(src uint64, f PackedFact) DerivedFact {
	var buf [64]byte
	return DerivedFact{Rule: f.Rule, Source: src, Target: f.Target,
		Witness: string(v.appendWitness(buf[:0], src, f))}
}

// DerivedFrom returns the derived facts sourced at the given annotation,
// in canonical (rule, target, witness) order.
func (v *View) DerivedFrom(src uint64) []DerivedFact {
	e := v.derived.Get(src)
	if e == nil {
		return nil
	}
	out := make([]DerivedFact, len(e.facts))
	for i, f := range e.facts {
		out[i] = v.fact(src, f)
	}
	return out
}

// HasDerivedFrom reports whether the annotation sources at least one
// derived fact of the given rule ("*" = any) — the query layer's
// derives-predicate probe. It renders no witness.
func (v *View) HasDerivedFrom(src uint64, rule string) bool {
	e := v.derived.Get(src)
	if e == nil {
		return false
	}
	return rule == "*" || slices.ContainsFunc(e.facts, func(f PackedFact) bool { return f.Rule == rule })
}

// DerivedEach visits every derived fact — ascending source ID, canonical
// fact order within a source — until fn returns false.
func (v *View) DerivedEach(fn func(DerivedFact) bool) {
	v.derived.Each(func(src uint64, e *derivedEntry) bool {
		for _, f := range e.facts {
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
func (v *View) targetingEach(target agraph.NodeRef, fn func(src uint64, f PackedFact) bool) {
	srcs, _ := v.derivedByTarget.Get(target.String())
	srcs.Each(func(src uint64) bool {
		for _, f := range v.derived.Get(src).facts {
			if f.Target == target && !fn(src, f) {
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
	v.targetingEach(target, func(src uint64, f PackedFact) bool { return fn(v.fact(src, f)) })
}

// HasDerivedTarget reports whether at least one derived fact of the
// given rule ("*" = any) targets the node — the query layer's
// provenance-predicate probe. Flat in the derived-table size.
func (v *View) HasDerivedTarget(target agraph.NodeRef, rule string) bool {
	if rule == "*" {
		srcs, _ := v.derivedByTarget.Get(target.String())
		return srcs.Len() > 0
	}
	found := false
	v.targetingEach(target, func(_ uint64, f PackedFact) bool {
		found = f.Rule == rule
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
		on, _ := v.derivedByTarget.Get(target.String())
		on.Each(func(src uint64) bool {
			srcs = append(srcs, src)
			return true
		})
	}
	slices.Sort(srcs)
	var out []DerivedFact
	for _, src := range slices.Compact(srcs) {
		for _, f := range v.derived.Get(src).facts {
			if slices.Contains(targets, f.Target) {
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
