package prop

import "graphitti/internal/obs"

// Process-wide propagation metrics (see internal/obs for the scope
// model). The rules gauge is last-writer-wins across stores (the shards
// of a server hold the same rules). Delta/recompute *timing*
// lives in core (graphitti_store_propagation_delta_seconds), because the
// writer owns the critical section; these count what the engine itself
// decides. All are documented in docs/METRICS.md, which a test keeps in
// sync.
var (
	mRules = obs.NewGauge("graphitti_prop_rules",
		"Propagation rules currently installed.")
	mRecomputes = obs.NewCounter("graphitti_prop_recomputes_total",
		"Full derived-table recomputations (rule changes and image registrations).")
	mAffectedSources = obs.NewHistogram("graphitti_prop_delta_affected_sources",
		"Annotations re-evaluated by one incremental delta (the mutation's propagation neighborhood).",
		obs.CountBuckets)
)
