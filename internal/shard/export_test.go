package shard

import (
	"bytes"
	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"slices"
	"sort"

	"graphitti/internal/persist"
)

// Export is the deployment's snapshot as GET /api/snapshot serves it: the
// checkpoint persist writes of one pinned view set and the rules read
// beside it, decoded. Only persist knows a snapshot's order, so the tests
// compare deployments through this.
func Export(s *Store) (*persist.Snapshot, error) {
	var b bytes.Buffer
	if err := persist.WriteCheckpoint(s.Views(), s.Rules(), &b); err != nil {
		return nil, err
	}
	return persist.Decode(&b)
}

// DerivedAll merges the per-shard derived tables in source-ID order,
// preserving each source's fact order — the global DerivedEach order,
// since every source annotation lives on exactly one shard.
func (vs Views) DerivedAll() []core.DerivedFact {
	var out []core.DerivedFact
	for _, v := range vs {
		out = slices.AppendSeq(out, v.DerivedEach)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// DerivedTargeting merges the provenance of one target node across
// shards: per-shard lists are (ascending source, canonical fact order)
// already, and sources are globally unique, so a stable source-order
// merge reproduces the unsharded order.
func (vs Views) DerivedTargeting(target agraph.NodeRef) []core.DerivedFact {
	var out []core.DerivedFact
	for _, v := range vs {
		v.DerivedTargetingEach(target, func(f core.DerivedFact) bool {
			out = append(out, f)
			return true
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
