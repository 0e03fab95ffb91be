package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/subx"
	"graphitti/internal/trace"
)

// ErrXPath wraps the error of an xpath property whose expression fails on
// a document it is evaluated against (count() of a number, say): the
// query's fault, not the store's.
var ErrXPath = errors.New("query: xpath property")

// Processor executes parsed queries against a Graphitti store. Each
// execution pins one immutable store view: every table, index and a-graph
// read across all sub-queries, join steps and subgraph collation observes
// the same snapshot, and execution never blocks (or is blocked by) the
// writer.
type Processor struct {
	store *core.Store
}

// NewProcessor returns a processor bound to a store.
func NewProcessor(s *core.Store) *Processor { return &Processor{store: s} }

// Options tune execution.
type Options struct {
	// MaxResults caps the number of matches (0 = unlimited).
	MaxResults int
}

// DefaultOptions is the zero Options: no cap beyond the query's own limit.
var DefaultOptions Options

// Match binds each query variable to an a-graph node.
type Match map[string]agraph.NodeRef

// Result is the outcome of a query, shaped per the paper's three result
// forms: annotation contents, heterogeneous sub-structures, or connection
// subgraphs.
type Result struct {
	Kind        SelectKind
	Matches     []Match
	Annotations []*core.Annotation // SelectContents
	Referents   []*core.Referent   // SelectReferents
	Subgraphs   []*agraph.Subgraph // SelectGraph (one per match)
	Stats       Stats
}

// cancelCheckStride bounds how many join bindings are tried between
// context checks.
const cancelCheckStride = 256

// Execute parses and runs a query with the given options.
func (p *Processor) Execute(src string, opts Options) (*Result, error) {
	return p.ExecuteCtx(context.Background(), src, opts)
}

// ExecuteCtx parses and runs a query, honoring ctx cancellation between
// candidate evaluations and join steps.
func (p *Processor) ExecuteCtx(ctx context.Context, src string, opts Options) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return p.ExecuteParsedCtx(ctx, q, opts)
}

// ExecuteParsedCtx runs a parsed query against one pinned view of the
// store, honoring ctx cancellation (see Run).
func (p *Processor) ExecuteParsedCtx(ctx context.Context, q *Query, opts Options) (*Result, error) {
	return Run(ctx, p.store.View(), q, opts)
}

// Run executes a parsed query against one view, honoring ctx
// cancellation. A parsed query is read-only here, so one can run on
// several views at once. When the context carries a trace span
// (trace.FromContext), the run is wrapped in a "query" child span tagged
// with variable and match counts.
func Run(ctx context.Context, v *core.View, q *Query, opts Options) (*Result, error) {
	sp := trace.FromContext(ctx).StartChild("query")
	defer sp.Finish()
	run := &execution{view: v, ctx: ctx}
	res, err := run.executeOrdered(q, opts, nil)
	if err == nil && sp != nil {
		sp.SetAttrInt("vars", int64(len(q.Vars)))
		sp.SetAttrInt("matches", int64(len(res.Matches)))
		sp.SetAttrInt("lazy_domains", int64(res.Stats.LazyDomains))
	}
	return res, err
}

// execution carries one query run's pinned view and context.
type execution struct {
	view *core.View
	ctx  context.Context
	// posIndex lazily maps a variable's candidates to their positions in
	// its domain slice; semi-join steps over a listed domain use it
	// to intersect enumerated neighbors with the candidate set and restore
	// candidate order.
	posIndex map[string]map[agraph.NodeRef]int
	// nestedLoop binds every variable by candidate scan, probing each
	// candidate's edges with HasEdgeBetween: the candidate×candidate join
	// the planner replaced, kept as the tests' reference.
	nestedLoop bool
}

// domain is one variable's candidate set: its exact size and, once listed,
// the candidates in canonical order.
//
// Most domains are listed by the sub-query that resolves them. A lazy
// domain belongs to a referent variable that is defined by a predicate
// alone (see lazyReferent): its members are the view's referents that
// pass props, in ID order, and phase 1 only counts them. A semi-join step
// tests the bound endpoint's few neighbors against props instead of
// intersecting them with a list of every member, and the planner picks
// its fan-out sample out of one more pass, so the list is built (by
// execution.nodes) only for the step that has to walk it: a candidate
// scan. A variable is bound by one step, so a lazy domain is either
// listed by its scan or never.
type domain struct {
	size   int
	listed bool
	nodes  []agraph.NodeRef // when listed
	props  []Prop           // of a lazy domain: its membership test
	// sample is the planner's fan-out sample (see fanSample), kept because
	// the planner asks for it once per variable it might bind next.
	sample []agraph.NodeRef
}

// lazyReferent reports whether a referent variable's candidate set can
// stay a predicate: every property is an O(1) test on the referent itself
// and no spatial index seeds the candidates (a seeded set is small, comes
// in index order rather than ID order, and is kept as a slice).
func lazyReferent(v *VarDecl) bool {
	domain, overlaps := false, false
	for _, prop := range v.Props {
		switch prop.Kind {
		case PropKindIs, PropObjectIs:
		case PropDomain:
			domain = true
		case PropOverlapsIv, PropOverlapsRect:
			overlaps = true
		default:
			return false
		}
	}
	return !(domain && overlaps)
}

// nodes returns d's candidates in canonical order, listing a lazy domain
// on first use.
func (e *execution) nodes(d *domain) ([]agraph.NodeRef, error) {
	if d.listed {
		return d.nodes, nil
	}
	nodes := make([]agraph.NodeRef, 0, d.size)
	err := e.eachReferent(d.props, func(r *core.Referent) {
		nodes = append(nodes, agraph.Referent(r.ID))
	})
	if err != nil {
		return nil, err
	}
	d.nodes, d.listed = nodes, true
	return nodes, nil
}

// fanSample returns the members of d the planner inspects when d is the
// bound endpoint of a step: up to fanSampleSize of them, evenly spaced in
// canonical order. A lazy domain that has not been listed gives them up
// in one pass, without being listed for it.
func (e *execution) fanSample(d *domain) ([]agraph.NodeRef, error) {
	if d.sample != nil || d.size == 0 {
		return d.sample, nil
	}
	k := min(fanSampleSize, d.size)
	sample := make([]agraph.NodeRef, 0, k)
	if d.listed {
		for i := 0; i < k; i++ {
			sample = append(sample, d.nodes[i*d.size/k])
		}
	} else {
		pos := 0
		err := e.eachReferent(d.props, func(r *core.Referent) {
			if len(sample) < k && pos == len(sample)*d.size/k {
				sample = append(sample, agraph.Referent(r.ID))
			}
			pos++
		})
		if err != nil {
			return nil, err
		}
	}
	d.sample = sample
	return sample, nil
}

// eachReferent visits, in ID order, the view's referents that pass
// props, polling ctx every cancelCheckStride referents scanned.
func (e *execution) eachReferent(props []Prop, fn func(*core.Referent)) error {
	var err error
	i := 0
	e.view.ReferentsEach(func(r *core.Referent) bool {
		if err = e.strideCheck(i); err != nil {
			return false
		}
		i++
		if referentMatches(r, props) {
			fn(r)
		}
		return true
	})
	return err
}

// executeOrdered runs q, optionally forcing the variable binding order
// (the tests replay declaration order and the retired greedy order
// through it; nil lets the planner decide).
func (e *execution) executeOrdered(q *Query, opts Options, forcedOrder []string) (*Result, error) {
	start := time.Now()
	// Phase 1 — sub-query separation: resolve per-type candidate sets.
	// The per-variable sub-queries are independent reads of the same
	// immutable view, so they fan out across the available cores; results
	// land in declaration order, keeping execution deterministic.
	domains := make(map[string]*domain, len(q.Vars))
	stats := Stats{CandidateCounts: make(map[string]int, len(q.Vars))}
	cands, err := e.candidateSets(q)
	if err != nil {
		return nil, err
	}
	for i := range q.Vars {
		v := &q.Vars[i]
		domains[v.Name] = cands[i]
		stats.CandidateCounts[v.Name] = cands[i].size
	}

	// Phase 2 — cost-based planning: a feasible order plus a per-variable
	// join strategy (see plan.go).
	pl, err := e.buildPlan(q, domains, forcedOrder)
	if err != nil {
		return nil, err
	}
	stats.Order = pl.order
	stats.Costs = pl.costs
	stats.Strategies = pl.strategies

	// Phase 3 — joining along a-graph edges with backtracking. The query's
	// own "limit N" clause applies unless the caller set a tighter cap.
	limit := opts.MaxResults
	if q.Limit > 0 && (limit == 0 || q.Limit < limit) {
		limit = q.Limit
	}
	var matches []Match
	binding := make(Match, len(q.Vars))
	if err := e.backtrack(q, domains, pl, 0, binding, &matches, &stats, limit); err != nil {
		return nil, err
	}
	stats.Matches = len(matches)
	for _, d := range domains {
		if !d.listed {
			stats.LazyDomains++
		}
	}

	// Phase 4 — collation into the selected result form.
	res := &Result{Kind: q.Select, Matches: matches, Stats: stats}
	if err := e.collate(q, res); err != nil {
		return nil, err
	}
	observeQuery(q, &stats, time.Since(start))
	return res, nil
}

// observeQuery records one completed execution into the query metrics.
func observeQuery(q *Query, stats *Stats, elapsed time.Duration) {
	mQuerySeconds.With(q.Select.String()).Observe(elapsed.Seconds())
	mBindingsTried.Add(uint64(stats.BindingsTried))
	var cost float64
	for _, c := range stats.Costs {
		cost += c
	}
	mPlanCost.Observe(cost)
	for _, s := range stats.Strategies {
		mStrategy.With(strategyLabel(s)).Inc()
	}
	for i := range q.Vars {
		for _, p := range q.Vars[i].Props {
			mPredicates.With(p.Kind.String()).Inc()
		}
	}
}

// candidateSets resolves every variable's sub-query, in parallel when the
// query has several variables and the machine has the cores for it; the
// last one runs on the calling goroutine, which would only wait otherwise.
func (e *execution) candidateSets(q *Query) ([]*domain, error) {
	out := make([]*domain, len(q.Vars))
	if len(q.Vars) <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		for i := range q.Vars {
			d, err := e.candidates(&q.Vars[i])
			if err != nil {
				return nil, err
			}
			out[i] = d
		}
		return out, nil
	}
	errs := make([]error, len(q.Vars))
	last := len(q.Vars) - 1
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = e.candidates(&q.Vars[i])
		}(i)
	}
	out[last], errs[last] = e.candidates(&q.Vars[last])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// candidates resolves one variable's sub-query against the pinned view.
func (e *execution) candidates(v *VarDecl) (*domain, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if v.Class == ClassReferent && lazyReferent(v) {
		d := &domain{props: v.Props}
		err := e.eachReferent(v.Props, func(*core.Referent) { d.size++ })
		return d, err
	}
	var out []agraph.NodeRef
	var err error
	switch v.Class {
	case ClassAnnotation:
		out, err = e.annotationCandidates(v)
	case ClassReferent:
		out, err = e.referentCandidates(v)
	case ClassObject:
		out, err = e.objectCandidates(v)
	default:
		out, err = e.termCandidates(v)
	}
	if err != nil {
		return nil, err
	}
	// Provenance filtering is class-independent: keep only candidates
	// that are the target of a matching derived fact. Each candidate is
	// one probe of the view's derived target index — cost is the facts
	// on that node, flat in the derived-table size (the retired path
	// rebuilt a target set from a full table scan per variable).
	for _, prop := range v.Props {
		if prop.Kind == PropProvenance {
			kept := out[:0]
			for _, n := range out {
				if e.view.HasDerivedTarget(n, prop.Str) {
					kept = append(kept, n)
				}
			}
			out = kept
		}
	}
	return &domain{size: len(out), listed: true, nodes: out}, nil
}

func (e *execution) annotationCandidates(v *VarDecl) ([]agraph.NodeRef, error) {
	// Start from the most selective source available: a keyword.
	var anns []*core.Annotation
	seeded := false
	for _, prop := range v.Props {
		if prop.Kind == PropContains {
			anns = e.view.SearchKeyword(prop.Str, true)
			seeded = true
			break
		}
	}
	if !seeded {
		anns = e.view.Annotations()
	}
	var out []agraph.NodeRef
	for i, ann := range anns {
		if i%cancelCheckStride == 0 {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		ok, err := e.annotationMatches(ann, v.Props)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, agraph.ContentRoot(ann.ID))
		}
	}
	return out, nil
}

func (e *execution) annotationMatches(ann *core.Annotation, props []Prop) (bool, error) {
	for _, prop := range props {
		switch prop.Kind {
		case PropDerived:
			if !e.view.HasDerivedFrom(ann.ID, prop.Str) {
				return false, nil
			}
		case PropContains:
			// Must match View.SearchKeyword's normalization exactly:
			// the keyword index seeds this variable's candidates, and a
			// re-check under a different normalization would reject the
			// index's own hits (padded input like `contains " tp53 "`).
			if !ann.Content.HasKeyword(core.NormalizeKeyword(prop.Str)) {
				return false, nil
			}
		case PropCreator:
			match := false
			for c := range ann.DC.Get(dublincore.Creator).All {
				if c == prop.Str {
					match = true
					break
				}
			}
			if !match {
				return false, nil
			}
		case PropXPath:
			truthy, err := prop.xpath.EvalBool(ann.Content)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrXPath, err)
			}
			if !truthy {
				return false, nil
			}
		}
	}
	return true, nil
}

func (e *execution) referentCandidates(v *VarDecl) ([]agraph.NodeRef, error) {
	var out []agraph.NodeRef
	collect := func(r *core.Referent) { out = append(out, agraph.Referent(r.ID)) }
	// Index-driven seeding when a spatial predicate names its space.
	var domain string
	for _, prop := range v.Props {
		if prop.Kind == PropDomain {
			domain = prop.Str
		}
	}
	var mark subx.Mark
	for _, prop := range v.Props {
		if domain == "" || mark != nil {
			break
		}
		switch prop.Kind {
		case PropOverlapsIv:
			mark = subx.IntervalMark{Domain: domain, IV: prop.Iv}
		case PropOverlapsRect:
			mark = subx.RegionMark{System: domain, R: prop.Rect}
		}
	}
	if mark == nil {
		return out, e.eachReferent(v.Props, collect)
	}
	for i, r := range e.view.ReferentsOverlapping(mark) {
		if err := e.strideCheck(i); err != nil {
			return nil, err
		}
		if referentMatches(r, v.Props) {
			collect(r)
		}
	}
	return out, nil
}

// strideCheck polls ctx every cancelCheckStride loop iterations, so a
// timeout can fire inside a large unseeded candidate scan — not only in
// the annotation scan and the join.
func (e *execution) strideCheck(i int) error {
	if i%cancelCheckStride == 0 {
		return e.ctx.Err()
	}
	return nil
}

func referentMatches(r *core.Referent, props []Prop) bool {
	for _, prop := range props {
		switch prop.Kind {
		case PropKindIs:
			if r.Kind.String() != prop.Str {
				return false
			}
		case PropDomain:
			if r.Domain != prop.Str {
				return false
			}
		case PropObjectIs:
			if r.ObjectID != prop.Str {
				return false
			}
		case PropOverlapsIv:
			if r.Kind != core.IntervalReferent && r.Kind != core.BlockReferent {
				return false
			}
			if !r.Interval.Overlaps(prop.Iv) {
				return false
			}
		case PropOverlapsRect:
			if r.Kind != core.RegionReferent || !r.Region.Overlaps(prop.Rect) {
				return false
			}
		}
	}
	return true
}

func (e *execution) objectCandidates(v *VarDecl) ([]agraph.NodeRef, error) {
	var out []agraph.NodeRef
	for i, h := range e.view.ObjectList() {
		if err := e.strideCheck(i); err != nil {
			return nil, err
		}
		ok := true
		for _, prop := range v.Props {
			switch prop.Kind {
			case PropType:
				if string(h.Type) != prop.Str {
					ok = false
				}
			case PropID:
				if h.ID != prop.Str {
					ok = false
				}
			}
		}
		if ok {
			out = append(out, agraph.Object(string(h.Type), h.ID))
		}
	}
	return out, nil
}

func (e *execution) termCandidates(v *VarDecl) ([]agraph.NodeRef, error) {
	var ontNames []string
	for _, prop := range v.Props {
		if prop.Kind == PropOntology {
			ontNames = []string{prop.Str}
		}
	}
	if ontNames == nil {
		ontNames = e.view.Ontologies()
	}
	var out []agraph.NodeRef
	for _, name := range ontNames {
		o, err := e.view.Ontology(name)
		if err != nil {
			return nil, err
		}
		terms := o.Terms()
		// Narrowing properties.
		for _, prop := range v.Props {
			switch prop.Kind {
			case PropTermIs:
				terms = filterStrings(terms, func(s string) bool { return s == prop.Str })
			case PropNamed:
				if t, ok := o.TermByName(prop.Str); ok {
					terms = filterStrings(terms, func(s string) bool { return s == t.ID })
				} else {
					terms = nil
				}
			case PropUnder:
				ci, err := o.CI(prop.Str)
				if err != nil {
					// The concept may belong to a different ontology in
					// the unnamed case; treat as no candidates here.
					terms = nil
					continue
				}
				allowed := map[string]bool{prop.Str: true}
				for _, t := range ci {
					allowed[t] = true
				}
				terms = filterStrings(terms, func(s string) bool { return allowed[s] })
			}
		}
		for i, t := range terms {
			if err := e.strideCheck(i); err != nil {
				return nil, err
			}
			out = append(out, agraph.Term(name, t))
		}
	}
	return out, nil
}

func filterStrings(in []string, keep func(string) bool) []string {
	var out []string
	for _, s := range in {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// backtrack explores candidate assignments depth-first, binding each
// step's variable by its planned strategy (candidate scan or semi-join
// enumeration). It returns a non-nil error only on context cancellation;
// running out of candidates or hitting the result cap end the walk
// normally.
func (e *execution) backtrack(q *Query, domains map[string]*domain,
	pl *plan, depth int, binding Match, out *[]Match, stats *Stats, maxResults int) error {
	if maxResults > 0 && len(*out) >= maxResults {
		return nil
	}
	if depth == len(pl.steps) {
		m := make(Match, len(binding))
		for k, v := range binding {
			m[k] = v
		}
		*out = append(*out, m)
		return nil
	}
	step := &pl.steps[depth]
	name := step.name
	cands, err := e.stepCandidates(step, domains, binding)
	if err != nil {
		return err
	}
	skipEdge := -1
	if step.enum != nil {
		skipEdge = step.enum.edgeIdx // already satisfied by enumeration
	}
	for _, cand := range cands {
		if maxResults > 0 && len(*out) >= maxResults {
			return nil
		}
		stats.BindingsTried++
		if stats.BindingsTried%cancelCheckStride == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		binding[name] = cand
		if e.consistent(q, binding, name, skipEdge) {
			if err := e.backtrack(q, domains, pl, depth+1, binding, out, stats, maxResults); err != nil {
				delete(binding, name)
				return err
			}
		}
		delete(binding, name)
	}
	return nil
}

// stepCandidates yields the candidates to try for one step, in the
// variable's canonical candidate order. Scan steps return the domain
// as-is. Semi-join steps enumerate the bound endpoint's a-graph edges,
// keep the neighbors that are candidates, and sort the survivors into
// domain order — the same candidates a scan would accept, in the same
// order, found in O(fan-out) instead of O(|domain|) edge probes.
func (e *execution) stepCandidates(step *planStep, domains map[string]*domain, binding Match) ([]agraph.NodeRef, error) {
	dom := domains[step.name]
	if step.enum == nil {
		return e.nodes(dom)
	}
	// neighbors visits the far end of each of the bound endpoint's edges
	// along the step's pattern edge until fn returns false.
	neighbors := func(fn func(agraph.NodeRef) bool) {
		g, bval := e.view.Graph(), binding[step.enum.other]
		if step.enum.varIsTo {
			g.OutEach(bval, func(ed agraph.Edge) bool { return fn(ed.To) }, step.enum.label)
		} else {
			g.InEach(bval, func(ed agraph.Edge) bool { return fn(ed.From) }, step.enum.label)
		}
	}
	if !dom.listed {
		return e.lazySurvivors(dom, neighbors)
	}
	pos := e.positionsOf(step.name, dom.nodes)
	var hits []int
	neighbors(func(n agraph.NodeRef) bool {
		if p, ok := pos[n]; ok {
			hits = append(hits, p)
		}
		return true
	})
	if len(hits) == 0 {
		return nil, nil
	}
	sort.Ints(hits)
	out := make([]agraph.NodeRef, 0, len(hits))
	for i, p := range hits {
		if i > 0 && p == hits[i-1] {
			continue // parallel edges to the same candidate
		}
		out = append(out, dom.nodes[p])
	}
	return out, nil
}

// lazySurvivors is the semi-join filter of a lazy domain: membership is
// the domain's predicate on the pinned view's referent, domain order is
// referent ID order, and a survivor reuses the graph's own node ref.
func (e *execution) lazySurvivors(dom *domain, neighbors func(func(agraph.NodeRef) bool)) ([]agraph.NodeRef, error) {
	type hit struct {
		id   uint64
		node agraph.NodeRef
	}
	var hits []hit
	var err error
	i := 0
	neighbors(func(n agraph.NodeRef) bool {
		// A hot endpoint's fan-out is a scan of its own.
		if i++; i%cancelCheckStride == 0 {
			if err = e.ctx.Err(); err != nil {
				return false
			}
		}
		id, ok := agraph.ReferentID(n)
		if !ok {
			return true
		}
		if r, rerr := e.view.Referent(id); rerr == nil && referentMatches(r, dom.props) {
			hits = append(hits, hit{id, n})
		}
		return true
	})
	if err != nil || len(hits) == 0 {
		return nil, err
	}
	slices.SortFunc(hits, func(a, b hit) int { return cmp.Compare(a.id, b.id) })
	out := make([]agraph.NodeRef, 0, len(hits))
	for i, h := range hits {
		if i > 0 && h.id == hits[i-1].id {
			continue // parallel edges to the same candidate
		}
		out = append(out, h.node)
	}
	return out, nil
}

// positionsOf returns (building lazily, once per execution) the map from
// a variable's candidates to their domain positions.
func (e *execution) positionsOf(name string, dom []agraph.NodeRef) map[agraph.NodeRef]int {
	if pos, ok := e.posIndex[name]; ok {
		return pos
	}
	if e.posIndex == nil {
		e.posIndex = make(map[string]map[agraph.NodeRef]int)
	}
	pos := make(map[agraph.NodeRef]int, len(dom))
	for i, n := range dom {
		pos[n] = i
	}
	e.posIndex[name] = pos
	return pos
}

// consistent checks all edge patterns and constraints whose variables are
// fully bound, after `last` was just assigned. skipEdge names a pattern
// edge already satisfied by semi-join enumeration (-1 = none).
func (e *execution) consistent(q *Query, binding Match, last string, skipEdge int) bool {
	g := e.view.Graph()
	for i, qe := range q.Edges {
		if i == skipEdge {
			continue
		}
		if qe.From != last && qe.To != last {
			continue
		}
		from, okF := binding[qe.From]
		to, okT := binding[qe.To]
		if !okF || !okT {
			continue
		}
		if !g.HasEdgeBetween(from, to, agraph.EdgeLabel(qe.Label)) {
			return false
		}
	}
	for _, c := range q.Constraints {
		relevant := false
		allBound := true
		for _, name := range c.Vars {
			if name == last {
				relevant = true
			}
			if _, ok := binding[name]; !ok {
				allBound = false
			}
		}
		if !relevant || !allBound {
			continue
		}
		if !e.checkConstraint(c, binding) {
			return false
		}
	}
	return true
}

func (e *execution) checkConstraint(c Constraint, binding Match) bool {
	if c.Kind == ConstraintDistinct {
		seen := make(map[agraph.NodeRef]bool, len(c.Vars))
		for _, name := range c.Vars {
			ref := binding[name]
			if seen[ref] {
				return false
			}
			seen[ref] = true
		}
		return true
	}
	refs := make([]*core.Referent, 0, len(c.Vars))
	for _, name := range c.Vars {
		node := binding[name]
		id, ok := agraph.ReferentID(node)
		if !ok {
			return false
		}
		r, err := e.view.Referent(id)
		if err != nil {
			return false
		}
		refs = append(refs, r)
	}
	switch c.Kind {
	case ConstraintDisjoint:
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if refs[i].ID == refs[j].ID || refs[i].Overlaps(refs[j]) {
					return false
				}
			}
		}
		return true
	case ConstraintOverlapping:
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if !refs[i].Overlaps(refs[j]) {
					return false
				}
			}
		}
		return true
	case ConstraintSameDomain:
		for _, r := range refs[1:] {
			if r.Domain != refs[0].Domain {
				return false
			}
		}
		return true
	case ConstraintConsecutive:
		for _, r := range refs {
			if r.Kind != core.IntervalReferent || r.Domain != refs[0].Domain {
				return false
			}
		}
		sorted := append([]*core.Referent(nil), refs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Interval.Lo < sorted[j].Interval.Lo })
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1].Interval.Hi > sorted[i].Interval.Lo {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// collate assembles the selected result form from the raw matches.
func (e *execution) collate(q *Query, res *Result) error {
	switch q.Select {
	case SelectContents:
		seen := make(map[uint64]bool)
		for _, m := range res.Matches {
			for _, v := range q.Vars {
				if v.Class != ClassAnnotation {
					continue
				}
				node := m[v.Name]
				if id, _, ok := agraph.ContentID(node); ok && !seen[id] {
					seen[id] = true
					ann, err := e.view.Annotation(id)
					if err != nil {
						return err
					}
					res.Annotations = append(res.Annotations, ann)
				}
			}
		}
		sort.Slice(res.Annotations, func(i, j int) bool {
			return res.Annotations[i].ID < res.Annotations[j].ID
		})
	case SelectReferents:
		seen := make(map[uint64]bool)
		for _, m := range res.Matches {
			for _, v := range q.Vars {
				if v.Class != ClassReferent {
					continue
				}
				if id, ok := agraph.ReferentID(m[v.Name]); ok && !seen[id] {
					seen[id] = true
					r, err := e.view.Referent(id)
					if err != nil {
						return err
					}
					res.Referents = append(res.Referents, r)
				}
			}
		}
		sort.Slice(res.Referents, func(i, j int) bool {
			return res.Referents[i].ID < res.Referents[j].ID
		})
	case SelectGraph:
		g := e.view.Graph()
		for _, m := range res.Matches {
			sg := matchSubgraph(q, m, g)
			res.Subgraphs = append(res.Subgraphs, sg)
		}
	}
	return nil
}

// matchSubgraph builds the type-extended connection subgraph of one match:
// the bound nodes plus the a-graph edges realising the pattern edges.
func matchSubgraph(q *Query, m Match, g *agraph.Graph) *agraph.Subgraph {
	nodes := make(map[agraph.NodeRef]bool, len(m))
	var terminals []agraph.NodeRef
	for _, node := range m {
		if !nodes[node] {
			nodes[node] = true
			terminals = append(terminals, node)
		}
	}
	edgeSet := make(map[uint64]agraph.Edge)
	for _, e := range q.Edges {
		from, to := m[e.From], m[e.To]
		g.OutEach(from, func(ge agraph.Edge) bool {
			if ge.To == to {
				edgeSet[ge.ID] = ge
				return false
			}
			return true
		}, agraph.EdgeLabel(e.Label))
	}
	sg := &agraph.Subgraph{Terminals: terminals}
	for n := range nodes {
		sg.Nodes = append(sg.Nodes, n)
	}
	sort.Slice(sg.Nodes, func(i, j int) bool { return sg.Nodes[i].Compare(sg.Nodes[j]) < 0 })
	for _, e := range edgeSet {
		sg.Edges = append(sg.Edges, e)
	}
	sort.Slice(sg.Edges, func(i, j int) bool { return sg.Edges[i].ID < sg.Edges[j].ID })
	// When the pattern graph leaves bound nodes disconnected, extend the
	// subgraph with connecting paths ("type-extended connection
	// subgraphs").
	if len(terminals) >= 2 && !sg.Connected() {
		if ext, err := g.Connect(terminals...); err == nil {
			merge := make(map[agraph.NodeRef]bool, len(sg.Nodes))
			for _, n := range sg.Nodes {
				merge[n] = true
			}
			for _, n := range ext.Nodes {
				if !merge[n] {
					merge[n] = true
					sg.Nodes = append(sg.Nodes, n)
				}
			}
			for _, e := range ext.Edges {
				if _, ok := edgeSet[e.ID]; !ok {
					edgeSet[e.ID] = e
					sg.Edges = append(sg.Edges, e)
				}
			}
			sort.Slice(sg.Nodes, func(i, j int) bool { return sg.Nodes[i].Compare(sg.Nodes[j]) < 0 })
			sort.Slice(sg.Edges, func(i, j int) bool { return sg.Edges[i].ID < sg.Edges[j].ID })
		}
	}
	return sg
}
