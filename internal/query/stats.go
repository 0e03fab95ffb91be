package query

// Stats reports how execution went: the sub-query sizes, the plan the
// processor chose (with its cost estimates — the explain surface), and
// the join work actually performed. The HTTP API's ?explain=1 response
// shows it, and the planner's tests and benchmarks read it.
type Stats struct {
	// CandidateCounts is the per-variable sub-query result size.
	CandidateCounts map[string]int
	// Order is the variable binding order the planner chose.
	Order []string
	// Costs is the planner's per-variable cost estimate at the point
	// each variable was placed: candidate-set size for scans, estimated
	// partial bindings × per-binding edge fan-out for semi-joins.
	Costs map[string]float64
	// Strategies names each variable's binding strategy: "scan" or
	// "semi-join(?bound -label-> ?var)" (the enumeration edge).
	Strategies map[string]string
	// BindingsTried counts candidate assignments attempted.
	BindingsTried int
	// Matches is the number of accepted bindings.
	Matches int
	// LazyDomains counts the referent variables whose candidate set stayed
	// a predicate from start to finish: counted, filtered against by
	// semi-joins, never built as a list.
	LazyDomains int
}
