// The cost-based join planner. Planning happens after the per-variable
// sub-queries resolve, so candidate counts are exact; per-edge fan-out
// is estimated from a-graph degree counts (In/OutCount) sampled over
// the bound endpoint's candidates. The plan fixes, per variable, both
// its position in the binding order and its join strategy:
//
//   - scan: iterate the variable's own candidate set (the only choice
//     for variables with no pattern edge into the bound prefix);
//   - semi-join: enumerate the bound endpoint's a-graph edges along the
//     cheapest connecting pattern edge and intersect with the candidate
//     set, instead of probing every candidate with HasEdgeBetween.
//
// Candidates surviving a semi-join are re-ordered into candidate-set
// order before binding, so the match stream is byte-identical to a
// candidate scan under the same order — which is how the differential
// tests prove the planner against declaration-order execution.
package query

import (
	"fmt"

	"graphitti/internal/agraph"
)

// fanSampleSize bounds how many of a bound variable's candidates the
// planner inspects (via In/OutCount) when estimating per-edge fan-out.
const fanSampleSize = 32

// prefixRowsCap keeps the running partial-binding estimate finite on
// adversarial patterns (pure cross products of large domains).
const prefixRowsCap = 1e15

// stepEdge resolves one pattern edge between a step's variable and an
// already-bound variable into traversal terms.
type stepEdge struct {
	edgeIdx int    // index into q.Edges (skipped by the re-check)
	other   string // the bound endpoint
	label   agraph.EdgeLabel
	varIsTo bool // the step variable is the edge's To endpoint
}

// planStep binds one variable: by candidate scan (enum == nil) or by
// semi-join enumeration along enum.
type planStep struct {
	name string
	enum *stepEdge
}

// plan is a complete execution plan plus its explain surface.
type plan struct {
	steps      []planStep
	order      []string
	costs      map[string]float64
	strategies map[string]string
}

// buildPlan plans q's join. With selectivity ordering the binding order
// minimises estimated cost; otherwise it is declaration order (ablation
// A5) or the caller's forced order (differential tests). Join strategy
// selection is independent of the order source, so every order produces
// identical results.
func (e *execution) buildPlan(q *Query, domains map[string]*domain,
	opts Options, forced []string) (*plan, error) {
	pl := &plan{
		costs:      make(map[string]float64, len(q.Vars)),
		strategies: make(map[string]string, len(q.Vars)),
	}
	switch {
	case forced != nil:
		pl.order = forced
	case opts.OrderBySelectivity:
		order, err := e.planOrderCost(q, domains, pl.costs)
		if err != nil {
			return nil, err
		}
		pl.order = order
	default:
		pl.order = declarationOrder(q)
	}
	bound := make(map[string]bool, len(pl.order))
	prefixRows := 1.0
	for _, name := range pl.order {
		enum, cost, perParent, err := e.chooseStrategy(q, domains, name, bound, prefixRows)
		if err != nil {
			return nil, err
		}
		if opts.Join == JoinNestedLoop {
			enum = nil
		}
		if _, ok := pl.costs[name]; !ok {
			pl.costs[name] = cost
		}
		pl.strategies[name] = describeStrategy(q, enum, name)
		pl.steps = append(pl.steps, planStep{name: name, enum: enum})
		prefixRows = advanceRows(prefixRows, perParent)
		bound[name] = true
	}
	return pl, nil
}

// chooseStrategy picks how to bind name given the bound prefix: the
// cheapest connecting edge's enumeration when its estimated fan-out
// beats scanning the candidate set, a scan otherwise. It returns the
// enumeration edge (nil for scan), the estimated cost of binding name
// across all prefixRows partial bindings, and the estimated per-binding
// survivor count. The error is estFan's.
func (e *execution) chooseStrategy(q *Query, domains map[string]*domain,
	name string, bound map[string]bool, prefixRows float64) (enum *stepEdge, cost, perParent float64, err error) {
	domainSize := float64(domains[name].size)
	var best *stepEdge
	bestFan := 0.0
	for _, se := range boundEdges(q, name, bound) {
		fan, err := e.estFan(domains[se.other], se)
		if err != nil {
			return nil, 0, 0, err
		}
		if best == nil || fan < bestFan {
			e := se
			best, bestFan = &e, fan
		}
	}
	if best == nil {
		return nil, prefixRows * domainSize, domainSize, nil
	}
	perParent = bestFan
	if domainSize < perParent {
		perParent = domainSize
	}
	if bestFan > domainSize {
		// Enumeration would visit more edges than a candidate scan
		// probes; scan, but keep the semi-join cost estimate (the scan
		// still filters on the same edge).
		return nil, prefixRows * perParent, perParent, nil
	}
	return best, prefixRows * perParent, perParent, nil
}

// advanceRows updates the running partial-binding estimate after
// binding a variable whose estimated per-parent survivor count is
// perParent (chooseStrategy's third return).
func advanceRows(prefixRows, perParent float64) float64 {
	rows := prefixRows * perParent
	if rows > prefixRowsCap {
		rows = prefixRowsCap
	}
	return rows
}

// planOrderCost orders variables by estimated cost: at every position
// the cheapest-to-bind unbound variable goes next, where cost combines
// the exact candidate count with the sampled per-edge fan-out from the
// bound prefix. Ties break toward the smaller candidate set, then
// declaration order, keeping plans deterministic.
func (e *execution) planOrderCost(q *Query, domains map[string]*domain,
	costs map[string]float64) ([]string, error) {
	names := declarationOrder(q)
	bound := make(map[string]bool, len(names))
	prefixRows := 1.0
	var order []string
	for len(order) < len(names) {
		best := ""
		var bestCost, bestPerParent float64
		for _, name := range names {
			if bound[name] {
				continue
			}
			_, cost, perParent, err := e.chooseStrategy(q, domains, name, bound, prefixRows)
			if err != nil {
				return nil, err
			}
			better := best == "" || cost < bestCost ||
				(cost == bestCost && domains[name].size < domains[best].size)
			if better {
				best, bestCost, bestPerParent = name, cost, perParent
			}
		}
		costs[best] = bestCost
		order = append(order, best)
		prefixRows = advanceRows(prefixRows, bestPerParent)
		bound[best] = true
	}
	return order, nil
}

// planOrderGreedy is the retired connected-smallest heuristic (the
// planner before cost-based ordering): the smallest unresolved candidate
// set joined to the bound set goes next, falling back to the global
// smallest. Kept as a differential-test oracle — the cost planner must
// produce identical results under this order too.
func planOrderGreedy(q *Query, domains map[string]*domain) []string {
	names := declarationOrder(q)
	adjacent := make(map[string]map[string]bool)
	for _, e := range q.Edges {
		if adjacent[e.From] == nil {
			adjacent[e.From] = make(map[string]bool)
		}
		if adjacent[e.To] == nil {
			adjacent[e.To] = make(map[string]bool)
		}
		adjacent[e.From][e.To] = true
		adjacent[e.To][e.From] = true
	}
	var order []string
	bound := make(map[string]bool)
	for len(order) < len(names) {
		best := ""
		bestConnected := false
		for _, name := range names {
			if bound[name] {
				continue
			}
			connected := false
			for b := range bound {
				if adjacent[name][b] {
					connected = true
					break
				}
			}
			if best == "" {
				best, bestConnected = name, connected
				continue
			}
			switch {
			case connected && !bestConnected:
				best, bestConnected = name, connected
			case connected == bestConnected && domains[name].size < domains[best].size:
				best, bestConnected = name, connected
			}
		}
		order = append(order, best)
		bound[best] = true
	}
	return order
}

func declarationOrder(q *Query) []string {
	names := make([]string, len(q.Vars))
	for i, v := range q.Vars {
		names[i] = v.Name
	}
	return names
}

// boundEdges returns the pattern edges joining name to the bound set,
// resolved to traversal terms, in query-edge order.
func boundEdges(q *Query, name string, bound map[string]bool) []stepEdge {
	var out []stepEdge
	for i, e := range q.Edges {
		switch {
		case e.From == name && bound[e.To]:
			out = append(out, stepEdge{edgeIdx: i, other: e.To,
				label: agraph.EdgeLabel(e.Label), varIsTo: false})
		case e.To == name && bound[e.From]:
			out = append(out, stepEdge{edgeIdx: i, other: e.From,
				label: agraph.EdgeLabel(e.Label), varIsTo: true})
		}
	}
	return out
}

// estFan estimates the mean number of a-graph edges a binding of the
// bound endpoint offers toward the step variable, from the degree counts
// of a sample of the bound endpoint's domain (see fanSample). The error is
// a cancellation met while drawing the sample from a lazy domain.
func (e *execution) estFan(bound *domain, se stepEdge) (float64, error) {
	sample, err := e.fanSample(bound)
	if err != nil || len(sample) == 0 {
		return 0, err
	}
	g := e.view.Graph()
	total := 0
	for _, cand := range sample {
		if se.varIsTo {
			total += g.OutCount(cand, se.label)
		} else {
			total += g.InCount(cand, se.label)
		}
	}
	return float64(total) / float64(len(sample)), nil
}

// describeStrategy renders a step's strategy for the explain surface.
func describeStrategy(q *Query, enum *stepEdge, name string) string {
	if enum == nil {
		return "scan"
	}
	e := q.Edges[enum.edgeIdx]
	return fmt.Sprintf("semi-join(?%s -%s-> ?%s)", e.From, e.Label, e.To)
}
