package core

import (
	"sort"

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
// The store does not compute derived facts itself: a Propagator attached
// via EnsurePropagator is consulted by the writer session (Tx), and its
// result is a step of the session, published with the mutation that
// caused it. A reader therefore never observes an annotation without its
// derived consequences, or a derived fact whose source is gone. Derived
// facts are recomputable from committed state, which is why the durable
// layer never logs them: only rules are durable ops, and recovery
// re-derives.

// DerivedFact is one materialized derived annotation.
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

// Propagator computes derived facts for the store. Implementations are
// called by the writer session, against sealed (but unpublished) states
// of it; they must not call any Store mutation method, only View reads.
type Propagator interface {
	// Delta returns the updated derived sets of every source annotation
	// affected by the commit (deleted=false) or deletion (deleted=true)
	// of ann. pre is the session's state before the mutation; post is the
	// state it leaves. A nil/empty slice removes the source's entry.
	// Returning nil means "no change". sp, when not nil, is the span the
	// delta runs under, for the propagator to attribute its work on.
	Delta(pre, post *View, ann *Annotation, deleted bool, sp *trace.Span) map[uint64][]DerivedFact
	// Recompute returns the complete derived map of a view from scratch.
	Recompute(v *View) map[uint64][]DerivedFact
	// RecomputeOnRegister reports whether registering a data object can
	// change derived facts (e.g. a co-registration rule is installed) —
	// when false, registrations skip the full recompute.
	RecomputeOnRegister() bool
}

// derivedEntry is one source annotation's fact set, tagged with the
// derived epoch at which it was last (re)computed.
type derivedEntry struct {
	epoch uint64
	facts []DerivedFact
}

// Propagator returns the attached propagation engine, or nil. Lock-free:
// it never waits on the writer.
func (s *Store) Propagator() Propagator {
	if p := s.propagator.Load(); p != nil {
		return *p
	}
	return nil
}

// EnsurePropagator returns the attached propagator, attaching mk() first
// if none is present. The check-and-set is one compare-and-swap, so
// concurrent callers agree on one instance, and a writer session may
// attach one without the writer mutex it already holds.
func (s *Store) EnsurePropagator(mk func() Propagator) Propagator {
	if p := s.Propagator(); p != nil {
		return p
	}
	p := mk()
	if !s.propagator.CompareAndSwap(nil, &p) {
		return s.Propagator()
	}
	return p
}

// UpdateDerivedRules runs swap — a mutation of the attached propagator's
// rule set — as one op of the session, with a full derived recompute over
// the session's sealed state. Because commits and deletes consult the
// propagator in writer sessions too, every published view's derived table
// is consistent with exactly one rule set. A swap error aborts without
// recomputing; without a propagator there is nothing to recompute and no
// op.
func (x *Tx) UpdateDerivedRules(swap func() error) error {
	if err := swap(); err != nil {
		return err
	}
	p := x.s.Propagator()
	if p == nil {
		return nil
	}
	x.open()
	x.seal().recomputeDerived(p)
	x.ops++
	return nil
}

// recomputeDerived replaces nv's derived table (and its target index)
// with p's from-scratch recompute. nv is a sealed state of a session.
func (nv *View) recomputeDerived(p Propagator) {
	nv.derivedEpoch++
	t := cow.Table[derivedEntry]{}.Edit()
	count := 0
	for src, facts := range p.Recompute(nv) {
		if len(facts) == 0 {
			continue
		}
		t.Set(src, &derivedEntry{epoch: nv.derivedEpoch, facts: facts})
		count += len(facts)
	}
	nv.derived = t.Table
	nv.derivedCount = count
	// Rebuild the target index in table order: sources ascend and each
	// source's facts are canonical, so plain appends leave every
	// per-target list already (source, rule, witness)-sorted.
	idx := cow.Map[[]DerivedFact]{}.Edit()
	t.Each(func(_ uint64, e *derivedEntry) bool {
		for _, f := range e.facts {
			key := f.Target.String()
			facts, _ := idx.Get(key)
			idx.Set(key, append(facts, f))
		}
		return true
	})
	nv.derivedByTarget = idx.Map
}

// applyDerivedDelta folds a propagator delta into nv, updating the
// derived table and its target index together. nv is the sealed state
// the delta was computed against.
func (nv *View) applyDerivedDelta(delta map[uint64][]DerivedFact) {
	if len(delta) == 0 {
		return
	}
	nv.derivedEpoch++
	t := nv.derived.Edit()
	count := nv.derivedCount
	idx := nv.derivedByTarget.Edit()
	for src, facts := range delta {
		var oldFacts []DerivedFact
		if old := t.Get(src); old != nil {
			oldFacts = old.facts
			count -= len(oldFacts)
		}
		// Index maintenance diffs the source's old and new fact sets —
		// both canonically sorted and deduped — so only facts that
		// actually appeared or disappeared touch their target's list.
		// (A delta usually re-confirms most of an affected neighbor's
		// facts; reindexing them all made the index cost O(facts per
		// source), not O(changed facts).)
		i, j := 0, 0
		for i < len(oldFacts) && j < len(facts) {
			switch {
			case oldFacts[i] == facts[j]:
				i++
				j++
			case DerivedFactLess(oldFacts[i], facts[j]):
				unindexDerivedFact(&idx, oldFacts[i])
				i++
			default:
				indexDerivedFact(&idx, facts[j])
				j++
			}
		}
		for ; i < len(oldFacts); i++ {
			unindexDerivedFact(&idx, oldFacts[i])
		}
		for ; j < len(facts); j++ {
			indexDerivedFact(&idx, facts[j])
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

// derivedTargetLess orders one target's index list: ascending source,
// then canonical fact order (the target is fixed, so canonical order
// reduces to rule then witness). This is the per-target subsequence of
// the global DerivedEach order.
func derivedTargetLess(a, b DerivedFact) bool {
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	if a.Rule != b.Rule {
		return a.Rule < b.Rule
	}
	return a.Witness < b.Witness
}

// indexDerivedFact inserts f into its target's sorted list. The list is
// replaced, never mutated: published views may share the old slice.
func indexDerivedFact(idx *cow.MapEdit[[]DerivedFact], f DerivedFact) {
	key := f.Target.String()
	facts, _ := idx.Get(key)
	i := sort.Search(len(facts), func(k int) bool { return !derivedTargetLess(facts[k], f) })
	out := make([]DerivedFact, 0, len(facts)+1)
	out = append(out, facts[:i]...)
	out = append(out, f)
	idx.Set(key, append(out, facts[i:]...))
}

// unindexDerivedFact removes f from its target's list (fresh slice; the
// key is dropped when the last fact goes).
func unindexDerivedFact(idx *cow.MapEdit[[]DerivedFact], f DerivedFact) {
	key := f.Target.String()
	facts, _ := idx.Get(key)
	for i, g := range facts {
		if g != f {
			continue
		}
		if len(facts) == 1 {
			idx.Delete(key)
			return
		}
		out := make([]DerivedFact, 0, len(facts)-1)
		out = append(out, facts[:i]...)
		idx.Set(key, append(out, facts[i+1:]...))
		return
	}
}

// DerivedFrom returns the derived facts sourced at the given annotation,
// in canonical (rule, target, witness) order.
func (v *View) DerivedFrom(src uint64) []DerivedFact {
	e := v.derived.Get(src)
	if e == nil {
		return nil
	}
	out := make([]DerivedFact, len(e.facts))
	copy(out, e.facts)
	return out
}

// DerivedFromEach visits the facts sourced at src, in canonical order,
// until fn returns false — the zero-copy variant of DerivedFrom for
// predicate checks on hot paths.
func (v *View) DerivedFromEach(src uint64, fn func(DerivedFact) bool) {
	e := v.derived.Get(src)
	if e == nil {
		return
	}
	for _, f := range e.facts {
		if !fn(f) {
			return
		}
	}
}

// DerivedEach visits every derived fact — ascending source ID, canonical
// fact order within a source — until fn returns false.
func (v *View) DerivedEach(fn func(DerivedFact) bool) {
	v.derived.Each(func(_ uint64, e *derivedEntry) bool {
		for _, f := range e.facts {
			if !fn(f) {
				return false
			}
		}
		return true
	})
}

// DerivedTargetingEach visits the derived facts whose target is the given
// node — the provenance of everything derived onto it — in (source, rule,
// witness) order until fn returns false, without copying. One target-index
// lookup: cost is the facts on that target, not the table size, and the
// order is identical to a filtered DerivedEach scan.
func (v *View) DerivedTargetingEach(target agraph.NodeRef, fn func(DerivedFact) bool) {
	facts, _ := v.derivedByTarget.Get(target.String())
	for _, f := range facts {
		if !fn(f) {
			return
		}
	}
}

// HasDerivedTarget reports whether at least one derived fact of the
// given rule ("*" = any) targets the node — the query layer's
// provenance-predicate probe. Flat in the derived-table size.
func (v *View) HasDerivedTarget(target agraph.NodeRef, rule string) bool {
	facts, _ := v.derivedByTarget.Get(target.String())
	if rule == "*" {
		return len(facts) > 0
	}
	for _, f := range facts {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

// DerivedOnto returns the derived facts targeting an annotation's
// content node or any of its referents — the full provenance of what was
// propagated onto it. One target-index lookup per target: cost is the
// facts on those targets, not the table size. The merged output keeps
// the global DerivedEach order (ascending source, canonical fact order
// within a source), byte-identical to the retired table scan.
func (v *View) DerivedOnto(annID uint64) ([]DerivedFact, error) {
	ann, err := v.Annotation(annID)
	if err != nil {
		return nil, err
	}
	targets := make(map[agraph.NodeRef]bool, ann.NumReferents()+1)
	targets[agraph.ContentRoot(annID)] = true
	for refID := range ann.ReferentIDs {
		targets[agraph.Referent(refID)] = true
	}
	var out []DerivedFact
	for target := range targets {
		v.DerivedTargetingEach(target, func(f DerivedFact) bool {
			out = append(out, f)
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return DerivedFactLess(out[i], out[j])
	})
	return out, nil
}

// DerivedFactLess is the canonical within-source fact order (rule,
// target, witness) — the order a propagator's fact sets are in.
func DerivedFactLess(a, b DerivedFact) bool {
	if a.Rule != b.Rule {
		return a.Rule < b.Rule
	}
	if c := a.Target.Compare(b.Target); c != 0 {
		return c < 0
	}
	return a.Witness < b.Witness
}

// DerivedSourceEpoch returns the epoch at which the given source's fact
// set was last recomputed (0 when the source has no facts).
func (v *View) DerivedSourceEpoch(src uint64) uint64 {
	if e := v.derived.Get(src); e != nil {
		return e.epoch
	}
	return 0
}
