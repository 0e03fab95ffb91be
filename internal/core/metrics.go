package core

import "graphitti/internal/obs"

// Writer-path metric families (see internal/obs for the scope model):
// commit/delete latency covers one op of a writer session — validation,
// indexing, graph wiring, index edits, and with a propagator its delta —
// and the gauges track the latest published view. Every family carries a
// "shard" label so a sharded deployment can tell its writer pipelines
// apart; an unsharded store reports as shard "0". All are documented in
// docs/METRICS.md, which a test keeps in sync.
var (
	mCommitSecondsVec = obs.NewHistogramVec("graphitti_store_commit_duration_seconds",
		"Annotation commit latency, critical section end to end.", nil, "shard")
	mDeleteSecondsVec = obs.NewHistogramVec("graphitti_store_delete_duration_seconds",
		"Annotation delete latency, critical section end to end.", nil, "shard")
	mPropDeltaSecondsVec = obs.NewHistogramVec("graphitti_store_propagation_delta_seconds",
		"Time computing the incremental derived-annotation delta inside a commit or delete.", nil, "shard")
	mSearchSecondsVec = obs.NewHistogramVec("graphitti_store_search_duration_seconds",
		"Keyword/content search latency against a pinned view.", nil, "shard")
	mViewEpochVec = obs.NewGaugeVec("graphitti_store_view_epoch",
		"Mutation count of the current view; advances by the number of mutations a publish carries.", "shard")
	mAnnotationsVec = obs.NewGaugeVec("graphitti_store_annotations",
		"Annotations in the current view.", "shard")
	mDerivedFactsVec = obs.NewGaugeVec("graphitti_store_derived_facts",
		"Materialized derived facts in the current view.", "shard")
)

// storeMetrics binds one shard's children of the writer-path families.
// Each Store carries its own set, and every View it publishes keeps a
// handle so read-side instruments (search latency) attribute to the
// shard that built the view.
type storeMetrics struct {
	commitSeconds *obs.Histogram
	deleteSeconds *obs.Histogram
	propDelta     *obs.Histogram
	searchSeconds *obs.Histogram
	viewEpoch     *obs.Gauge
	annotations   *obs.Gauge
	derivedFacts  *obs.Gauge
}

func metricsForShard(shard string) *storeMetrics {
	if shard == "" {
		shard = "0"
	}
	return &storeMetrics{
		commitSeconds: mCommitSecondsVec.With(shard),
		deleteSeconds: mDeleteSecondsVec.With(shard),
		propDelta:     mPropDeltaSecondsVec.With(shard),
		searchSeconds: mSearchSecondsVec.With(shard),
		viewEpoch:     mViewEpochVec.With(shard),
		annotations:   mAnnotationsVec.With(shard),
		derivedFacts:  mDerivedFactsVec.With(shard),
	}
}
