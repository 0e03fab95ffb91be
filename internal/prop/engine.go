package prop

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/trace"
)

// Engine holds the rule set and implements core.Propagator: the store's
// writer session calls Delta on every commit/delete, and Recompute after
// coarse events (rule changes, image registration).
// All methods are safe for concurrent use.
type Engine struct {
	store *core.Store

	mu    sync.RWMutex
	rules map[string]Rule
}

// Attach returns the store's propagation engine, creating and attaching
// one if the store has none. The check-and-attach is atomic; concurrent
// callers get the same instance. It panics if a non-prop Propagator is
// already attached.
func Attach(s *core.Store) *Engine {
	p := s.EnsurePropagator(func() core.Propagator {
		return &Engine{store: s, rules: make(map[string]Rule)}
	})
	e, ok := p.(*Engine)
	if !ok {
		panic("prop: store has a non-prop propagator attached")
	}
	return e
}

// RulesOf returns the rules of the store's engine without attaching one
// (nil when no engine is attached).
func RulesOf(s *core.Store) []Rule {
	if e, ok := s.Propagator().(*Engine); ok {
		return e.Rules()
	}
	return nil
}

// AddRule validates and registers a rule, then rebuilds the derived
// table so every existing annotation is evaluated under it: AddRules as a
// session of one of the engine's store. The rule is active once AddRule
// returns.
func (e *Engine) AddRule(r Rule) error {
	return e.store.Batch(func(x *core.Tx) error { return AddRules(x, r) })
}

// DeleteRule removes a rule and every fact it derived: DeleteRule as a
// session of one of the engine's store.
func (e *Engine) DeleteRule(id string) error {
	return e.store.Batch(func(x *core.Tx) error { return DeleteRule(x, id) })
}

// AddRules registers rules as one op of session x, with one derived-table
// rebuild for all of them — what snapshot load uses so N rules cost one
// recompute, not N. The engine is that of x's store, attached first if it
// has none. Validation and duplicate checks run first; any failure leaves
// the rule set and the derived table untouched. The rule swap and the
// rebuild are one op of the writer session (core.Tx.UpdateDerivedRules),
// so no commit can publish a view whose derived table disagrees with the
// rule set.
func AddRules(x *core.Tx, rules ...Rule) error {
	e := Attach(x.Store())
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return x.UpdateDerivedRules(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		for i, r := range rules {
			if _, dup := e.rules[r.ID]; dup {
				return fmt.Errorf("%w: %s", ErrDuplicateRule, r.ID)
			}
			for _, earlier := range rules[:i] {
				if earlier.ID == r.ID {
					return fmt.Errorf("%w: %s", ErrDuplicateRule, r.ID)
				}
			}
		}
		for _, r := range rules {
			e.rules[r.ID] = r
		}
		mRules.Set(int64(len(e.rules)))
		return nil
	})
}

// DeleteRule removes a rule and every fact it derived as one op of
// session x (see AddRules).
func DeleteRule(x *core.Tx, id string) error {
	e := Attach(x.Store())
	return x.UpdateDerivedRules(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.rules[id]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchRule, id)
		}
		delete(e.rules, id)
		mRules.Set(int64(len(e.rules)))
		return nil
	})
}

// Rules returns the registered rules, sorted by ID.
func (e *Engine) Rules() []Rule {
	return e.rulesSnapshot()
}

func (e *Engine) rulesSnapshot() []Rule {
	e.mu.RLock()
	out := make([]Rule, 0, len(e.rules))
	for _, r := range e.rules {
		out = append(out, r)
	}
	e.mu.RUnlock()
	sortRules(out)
	return out
}

// Delta implements core.Propagator: the incremental maintenance path.
//
// The affected-source set of a mutation is the mutated annotation plus
// its propagation neighborhood — annotations sharing one of its
// referents (shared-referent edges) and annotations owning a referent
// that overlaps one of its referents (overlap edges; found through the
// spatial index of the appropriate view). Closure and co-registration
// facts depend only on their own source, so they need no neighbors.
// Each affected source's fact set is then recomputed in full against the
// post state — exactly what a from-scratch recompute would produce
// for it, which is how the delta path stays byte-identical to full
// recomputation.
//
// For deletions the neighborhood is taken from the pre state:
// its trees and its a-graph still hold the garbage-collected referents
// and their edges, which is the only way to find the surviving
// annotations whose facts targeted them.
//
// With a span, the delta attributes its work per rule onto it: for every
// rule that evaluated, rule.<id>.facts (facts produced across all
// affected sources) and rule.<id>.micros (cumulative evaluation time),
// plus the size of the affected-source set.
func (e *Engine) Delta(pre, post *core.View, ann *core.Annotation,
	deleted bool, sp *trace.Span) map[uint64][]core.DerivedFact {
	rules := e.rulesSnapshot()
	if len(rules) == 0 {
		return nil
	}
	needOverlap, needShared := false, false
	for _, r := range rules {
		switch r.Edge {
		case EdgeOverlap:
			needOverlap = true
		case EdgeSharedReferent:
			needShared = true
		}
	}

	affected := map[uint64]bool{ann.ID: true}
	base := post
	if deleted {
		base = pre
	}
	if needOverlap || needShared {
		for refID := range ann.ReferentIDs {
			ref, err := base.Referent(refID)
			if err != nil {
				continue
			}
			if needShared {
				for _, other := range base.AnnotationsOfReferent(refID) {
					affected[other.ID] = true
				}
			}
			if needOverlap && spatialKind(ref.Kind) {
				for _, s := range base.ReferentsOverlapping(ref.Mark()) {
					if s == nil || s.ID == refID {
						continue
					}
					for _, other := range base.AnnotationsOfReferent(s.ID) {
						affected[other.ID] = true
					}
				}
			}
		}
	}

	mDeltas.Inc()
	mAffectedSources.Observe(float64(len(affected)))
	var stats map[string]*ruleStat
	if sp != nil {
		stats = make(map[string]*ruleStat, len(rules))
	}
	out := make(map[uint64][]core.DerivedFact, len(affected))
	for src := range affected {
		if deleted && src == ann.ID {
			out[src] = nil
			continue
		}
		srcAnn, err := post.Annotation(src)
		if err != nil {
			out[src] = nil
			continue
		}
		out[src] = e.evalSource(post, srcAnn, rules, stats)
	}
	if sp != nil {
		sp.SetAttrInt("sources", int64(len(affected)))
		for id, rs := range stats {
			sp.SetAttrInt("rule."+id+".facts", int64(rs.facts))
			sp.SetAttrInt("rule."+id+".micros", rs.nanos/1e3)
		}
	}
	return out
}

// ruleStat accumulates one rule's contribution to a traced delta across
// every affected source.
type ruleStat struct {
	facts int
	nanos int64
}

// Recompute implements core.Propagator: the from-scratch path the delta
// path is proven against, also used after rule changes and image
// registrations.
func (e *Engine) Recompute(v *core.View) map[uint64][]core.DerivedFact {
	rules := e.rulesSnapshot()
	if len(rules) == 0 {
		return nil
	}
	mRecomputes.Inc()
	out := make(map[uint64][]core.DerivedFact)
	for _, ann := range v.Annotations() {
		if facts := e.evalSource(v, ann, rules, nil); len(facts) > 0 {
			out[ann.ID] = facts
		}
	}
	return out
}

// RecomputeOnRegister implements core.Propagator: object registrations
// only matter to co-registration rules.
func (e *Engine) RecomputeOnRegister() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, r := range e.rules {
		if r.Edge == EdgeCoRegistered {
			return true
		}
	}
	return false
}

func spatialKind(k core.ReferentKind) bool {
	return k == core.IntervalReferent || k == core.RegionReferent
}

// evalSource computes one source annotation's complete derived fact set
// under the given rules, in canonical order. It reads only the view, so
// evaluating the same source against the same view always produces the
// same bytes regardless of the path (delta or recompute) that asked. When
// stats is not nil each rule's fact output and evaluation time are
// accumulated into it (a traced delta; nil costs nothing).
func (e *Engine) evalSource(v *core.View, ann *core.Annotation, rules []Rule,
	stats map[string]*ruleStat) []core.DerivedFact {
	var facts []core.DerivedFact
	ownRefs := make(map[uint64]bool, ann.NumReferents())
	for id := range ann.ReferentIDs {
		ownRefs[id] = true
	}
	for _, rule := range rules {
		// The keyword trigger matches as SearchKeyword and the query
		// engine's contains do, under the keyword index's normalization.
		if rule.Keyword != "" && !ann.Content.HasKeyword(core.NormalizeKeyword(rule.Keyword)) {
			continue
		}
		if rule.Term != "" && !referencesTerm(ann, rule.Ontology, rule.Term) {
			continue
		}
		var t0 time.Time
		before := len(facts)
		if stats != nil {
			t0 = time.Now()
		}
		switch rule.Edge {
		case EdgeOverlap:
			facts = e.evalOverlap(v, ann, rule, ownRefs, facts)
		case EdgeCoRegistered:
			facts = e.evalCoRegistered(v, ann, rule, facts)
		case EdgeOntologyClosure:
			facts = e.evalClosure(v, ann, rule, facts)
		case EdgeSharedReferent:
			facts = e.evalShared(v, ann, rule, facts)
		}
		if stats != nil {
			rs := stats[rule.ID]
			if rs == nil {
				rs = &ruleStat{}
				stats[rule.ID] = rs
			}
			rs.facts += len(facts) - before
			rs.nanos += time.Since(t0).Nanoseconds()
		}
	}
	return canonicalize(facts)
}

// triggeringReferent reports whether ref participates in rule's spatial
// edge under the rule's kind/domain filters.
func triggeringReferent(ref *core.Referent, rule Rule) bool {
	if rule.Domain != "" && ref.Domain != rule.Domain {
		return false
	}
	if rule.Kind != "" && ref.Kind.String() != rule.Kind {
		return false
	}
	return true
}

func (e *Engine) evalOverlap(v *core.View, ann *core.Annotation, rule Rule,
	ownRefs map[uint64]bool, facts []core.DerivedFact) []core.DerivedFact {
	for refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil || !spatialKind(ref.Kind) || !triggeringReferent(ref, rule) {
			continue
		}
		for _, s := range v.ReferentsOverlapping(ref.Mark()) {
			if s == nil || ownRefs[s.ID] {
				continue // its own marks are directly annotated, not derived
			}
			facts = append(facts, core.DerivedFact{
				Rule:    rule.ID,
				Source:  ann.ID,
				Target:  agraph.Referent(s.ID),
				Witness: fmt.Sprintf("overlap ref%d~ref%d", ref.ID, s.ID),
			})
		}
	}
	return facts
}

func (e *Engine) evalCoRegistered(v *core.View, ann *core.Annotation, rule Rule,
	facts []core.DerivedFact) []core.DerivedFact {
	for refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil || ref.Kind != core.RegionReferent || !triggeringReferent(ref, rule) {
			continue
		}
		for _, imgID := range v.Images() {
			if imgID == ref.ObjectID {
				continue
			}
			im, err := v.Image(imgID)
			if err != nil || im.System != ref.Domain || !im.Footprint().Overlaps(*ref.Region) {
				continue
			}
			facts = append(facts, core.DerivedFact{
				Rule:    rule.ID,
				Source:  ann.ID,
				Target:  agraph.Object(string(core.TypeImage), imgID),
				Witness: fmt.Sprintf("coreg ref%d in %s", ref.ID, ref.Domain),
			})
		}
	}
	return facts
}

func (e *Engine) evalClosure(v *core.View, ann *core.Annotation, rule Rule,
	facts []core.DerivedFact) []core.DerivedFact {
	for tr := range ann.Terms {
		if rule.Ontology != "" && tr.Ontology != rule.Ontology {
			continue
		}
		o, err := v.Ontology(tr.Ontology)
		if err != nil {
			continue
		}
		ancestors, err := o.Ancestors(tr.TermID, rule.closureRelations())
		if err != nil {
			continue
		}
		for _, anc := range ancestors {
			facts = append(facts, core.DerivedFact{
				Rule:    rule.ID,
				Source:  ann.ID,
				Target:  agraph.Term(tr.Ontology, anc),
				Witness: fmt.Sprintf("closure %s/%s -> %s", tr.Ontology, tr.TermID, anc),
			})
		}
	}
	return facts
}

func (e *Engine) evalShared(v *core.View, ann *core.Annotation, rule Rule,
	facts []core.DerivedFact) []core.DerivedFact {
	for refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil || !triggeringReferent(ref, rule) {
			continue
		}
		for _, other := range v.AnnotationsOfReferent(refID) {
			if other.ID == ann.ID {
				continue
			}
			facts = append(facts, core.DerivedFact{
				Rule:    rule.ID,
				Source:  ann.ID,
				Target:  agraph.ContentRoot(other.ID),
				Witness: fmt.Sprintf("shared ref%d", refID),
			})
		}
	}
	return facts
}

// canonicalize sorts facts by (rule, target, witness) and drops exact
// duplicates (a shared referent reached through two of the source's own
// marks, say), making fact sets comparable byte-for-byte.
func canonicalize(facts []core.DerivedFact) []core.DerivedFact {
	if len(facts) == 0 {
		return nil
	}
	sort.Slice(facts, func(i, j int) bool { return core.DerivedFactLess(facts[i], facts[j]) })
	out := facts[:1]
	for _, f := range facts[1:] {
		if f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

func referencesTerm(ann *core.Annotation, ont, term string) bool {
	for tr := range ann.Terms {
		if tr.Ontology == ont && tr.TermID == term {
			return true
		}
	}
	return false
}
