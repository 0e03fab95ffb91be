package query

import "graphitti/internal/obs"

// costBuckets cover the planner's per-variable cost estimates, which are
// candidate counts and fan-out products rather than seconds.
var costBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// Process-wide query-path metrics (see internal/obs for the scope
// model). The strategy counter buckets "semi-join(...)" plans under one
// "semi-join" label to keep cardinality bounded. All are documented in
// docs/METRICS.md, which a test keeps in sync.
var (
	mQuerySeconds = obs.NewHistogramVec("graphitti_query_duration_seconds",
		"Query latency end to end (candidates, planning, join, collation), by select kind.",
		nil, "select")
	mPlanCost = obs.NewHistogram("graphitti_query_plan_cost",
		"Planner cost estimate summed over the chosen binding order (candidate counts and fan-out products, unitless).",
		costBuckets)
	mBindingsTried = obs.NewCounter("graphitti_query_bindings_tried_total",
		"Candidate assignments attempted during backtracking joins.")
	mStrategy = obs.NewCounterVec("graphitti_query_strategy_total",
		"Variable binding strategies the planner chose: scan or semi-join.", "strategy")
	mPredicates = obs.NewCounterVec("graphitti_query_predicates_total",
		"Property predicates appearing in executed queries, by predicate kind.", "kind")
)

// strategyLabel collapses the explain-style strategy string ("scan" or
// "semi-join(?a -label-> ?b)") to its bounded family.
func strategyLabel(s string) string {
	if len(s) >= 9 && s[:9] == "semi-join" {
		return "semi-join"
	}
	return s
}
