package prop

import (
	"fmt"
	"slices"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/trace"
)

// ruleSet is a rule set as a view holds it: sorted by ID (the canonical
// evaluation order), never empty, and never written once built — a rule
// change builds the next set. It implements core.Propagator: the writer
// session calls Delta on every commit/delete, and Recompute after coarse
// events (rule changes, image registration).
type ruleSet struct {
	rules []Rule
	// ids are the rules' IDs, the table core stores facts' rules by
	// (RuleIDs); tokens are their keywords, normalized once, here, for
	// core.Annotation.HasToken (core.NormalizeKeyword).
	ids, tokens []string
}

// newRuleSet builds the rule set of rules, which are sorted by ID.
func newRuleSet(rules []Rule) *ruleSet {
	rs := &ruleSet{rules: rules, ids: make([]string, len(rules)), tokens: make([]string, len(rules))}
	for i, r := range rules {
		rs.ids[i], rs.tokens[i] = r.ID, core.NormalizeKeyword(r.Keyword)
	}
	return rs
}

// noRules is the rule set of a view without a propagator.
var noRules = &ruleSet{}

// ruleSetOf returns the rule set p is, noRules for nil.
func ruleSetOf(p core.Propagator) *ruleSet {
	if rs, ok := p.(*ruleSet); ok {
		return rs
	}
	return noRules
}

// Engine is a handle on a store's rules: AddRule and DeleteRule run the
// rule ops as sessions of one. It holds no state of its own — the rules
// are a value of each view — so any number of handles agree.
type Engine struct {
	store *core.Store
}

// Attach returns a rule handle on the store.
func Attach(s *core.Store) *Engine { return &Engine{store: s} }

// RulesOf returns the rules of the view, sorted by ID: exactly the rules
// its derived table was computed under (nil when there are none).
func RulesOf(v *core.View) []Rule { return slices.Clone(ruleSetOf(v.Propagator()).rules) }

// SharedRules returns the rules of views, one per shard, sorted by ID:
// views[0]'s, when every view holds the same set. A rule op is broadcast
// to every shard, so the shards hold one set, unless a broadcast reached
// some and not others (re-issuing it converges them); until then their
// derived facts were computed under different rules, and SharedRules
// refuses with ErrSplitRules.
func SharedRules(views []*core.View) ([]Rule, error) {
	first := ruleSetOf(views[0].Propagator())
	for k, v := range views[1:] {
		if rs := ruleSetOf(v.Propagator()); !slices.EqualFunc(first.rules, rs.rules, sameRule) {
			return nil, fmt.Errorf("%w: shard 0 holds %v, shard %d holds %v", ErrSplitRules, first.ids, k+1, rs.ids)
		}
	}
	return slices.Clone(first.rules), nil
}

// sameRule reports whether a and b are the same rule, field by field.
func sameRule(a, b Rule) bool {
	return a.ID == b.ID && a.Keyword == b.Keyword && a.Ontology == b.Ontology && a.Term == b.Term &&
		a.Domain == b.Domain && a.Kind == b.Kind && a.Edge == b.Edge && slices.Equal(a.Relations, b.Relations)
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
// recompute, not N. Validation and duplicate checks run first; any
// failure leaves the rule set and the derived table untouched. The next
// rule set and the rebuild are one op of the writer session
// (core.Tx.SetPropagator), so no view holds a derived table that
// disagrees with its rule set.
func AddRules(x *core.Tx, rules ...Rule) error {
	cur := ruleSetOf(x.Propagator()).rules
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	for i, r := range rules {
		if indexOf(cur, r.ID) >= 0 || indexOf(rules[:i], r.ID) >= 0 {
			return fmt.Errorf("%w: %s", ErrDuplicateRule, r.ID)
		}
	}
	next := append(slices.Clone(cur), rules...)
	sortRules(next)
	setRules(x, next)
	return nil
}

// DeleteRule removes a rule and every fact it derived as one op of
// session x (see AddRules).
func DeleteRule(x *core.Tx, id string) error {
	cur := ruleSetOf(x.Propagator()).rules
	i := indexOf(cur, id)
	if i < 0 {
		return fmt.Errorf("%w: %s", ErrNoSuchRule, id)
	}
	setRules(x, slices.Delete(slices.Clone(cur), i, i+1))
	return nil
}

// setRules makes next the rule set of session x's state: no propagator
// when it is empty, as an empty ruleSet in the interface would not be nil.
func setRules(x *core.Tx, next []Rule) {
	mRules.Set(int64(len(next)))
	if len(next) == 0 {
		x.SetPropagator(nil)
		return
	}
	x.SetPropagator(newRuleSet(next))
}

// indexOf returns the position of the rule named id in rules, or -1.
func indexOf(rules []Rule, id string) int {
	return slices.IndexFunc(rules, func(r Rule) bool { return r.ID == id })
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
func (rs *ruleSet) Delta(pre, post *core.View, ann *core.Annotation,
	deleted bool, sp *trace.Span) map[uint64]string {
	needOverlap, needShared := false, false
	for _, r := range rs.rules {
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

	mAffectedSources.Observe(float64(len(affected)))
	var stats map[string]*ruleStat
	if sp != nil {
		stats = make(map[string]*ruleStat, len(rs.rules))
	}
	out := make(map[uint64]string, len(affected))
	var buf []core.PackedFact
	for src := range affected {
		if deleted && src == ann.ID {
			out[src] = ""
			continue
		}
		srcAnn, err := post.Annotation(src)
		if err != nil {
			out[src] = ""
			continue
		}
		out[src] = rs.evalSource(post, srcAnn, stats, &buf)
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
func (rs *ruleSet) Recompute(v *core.View) map[uint64]string {
	mRecomputes.Inc()
	out := make(map[uint64]string)
	var buf []core.PackedFact
	for _, ann := range v.Annotations() {
		if facts := rs.evalSource(v, ann, nil, &buf); facts != "" {
			out[ann.ID] = facts
		}
	}
	return out
}

// RecomputeOnRegister implements core.Propagator: object registrations
// only matter to co-registration rules.
func (rs *ruleSet) RecomputeOnRegister() bool {
	return slices.ContainsFunc(rs.rules, func(r Rule) bool { return r.Edge == EdgeCoRegistered })
}

// RuleIDs implements core.Propagator: the rules' IDs, ascending.
func (rs *ruleSet) RuleIDs() []string { return rs.ids }

func spatialKind(k core.ReferentKind) bool {
	return k == core.IntervalReferent || k == core.RegionReferent
}

// evalSource computes one source annotation's complete derived fact set
// under the rule set, in the table's form (core.View.CanonicalFacts).
// It reads only the view, so evaluating the same source against the same
// view always produces the same facts regardless of the path (delta or
// recompute) that asked. The facts are gathered in *buf, which is kept
// for the next call. When stats is not nil each rule's fact output and
// evaluation time are accumulated into it (a traced delta; nil costs
// nothing).
func (rs *ruleSet) evalSource(v *core.View, ann *core.Annotation,
	stats map[string]*ruleStat, buf *[]core.PackedFact) string {
	facts := (*buf)[:0]
	ownRefs := make(map[uint64]bool, ann.NumReferents())
	for id := range ann.ReferentIDs {
		ownRefs[id] = true
	}
	for i, rule := range rs.rules {
		// The keyword trigger matches as SearchKeyword and contains do.
		if rule.Keyword != "" && !ann.HasToken(rs.tokens[i]) {
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
			facts = evalOverlap(v, ann, rule, ownRefs, facts)
		case EdgeCoRegistered:
			facts = evalCoRegistered(v, ann, rule, facts)
		case EdgeOntologyClosure:
			facts = evalClosure(v, ann, rule, facts)
		case EdgeSharedReferent:
			facts = evalShared(v, ann, rule, facts)
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
	*buf = facts
	return v.CanonicalFacts(ann.ID, facts)
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

func evalOverlap(v *core.View, ann *core.Annotation, rule Rule,
	ownRefs map[uint64]bool, facts []core.PackedFact) []core.PackedFact {
	for refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil || !spatialKind(ref.Kind) || !triggeringReferent(ref, rule) {
			continue
		}
		for _, s := range v.ReferentsOverlapping(ref.Mark()) {
			if s == nil || ownRefs[s.ID] {
				continue // its own marks are directly annotated, not derived
			}
			facts = append(facts, core.PackedFact{Rule: rule.ID, Target: agraph.Referent(s.ID), Via: ref.ID})
		}
	}
	return facts
}

func evalCoRegistered(v *core.View, ann *core.Annotation, rule Rule,
	facts []core.PackedFact) []core.PackedFact {
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
			facts = append(facts, core.PackedFact{Rule: rule.ID,
				Target: agraph.Object(string(core.TypeImage), imgID), Via: ref.ID})
		}
	}
	return facts
}

func evalClosure(v *core.View, ann *core.Annotation, rule Rule,
	facts []core.PackedFact) []core.PackedFact {
	var k uint64 // the position of tr in ann.Terms, which renders the witness
	for tr := range ann.Terms {
		via := k
		k++
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
			facts = append(facts, core.PackedFact{Rule: rule.ID, Target: agraph.Term(tr.Ontology, anc), Via: via})
		}
	}
	return facts
}

func evalShared(v *core.View, ann *core.Annotation, rule Rule,
	facts []core.PackedFact) []core.PackedFact {
	for refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil || !triggeringReferent(ref, rule) {
			continue
		}
		for _, other := range v.AnnotationsOfReferent(refID) {
			if other.ID == ann.ID {
				continue
			}
			facts = append(facts, core.PackedFact{Rule: rule.ID, Target: agraph.ContentRoot(other.ID), Via: refID})
		}
	}
	return facts
}

func referencesTerm(ann *core.Annotation, ont, term string) bool {
	for tr := range ann.Terms {
		if tr.Ontology == ont && tr.TermID == term {
			return true
		}
	}
	return false
}
