package shard

import (
	"bytes"

	"graphitti/internal/persist"
)

// Export is the deployment's snapshot as GET /api/snapshot serves it: the
// checkpoint persist writes of one pinned view set, decoded: a snapshot
// the tests restore elsewhere. They compare deployments with
// workload.Diff.
func Export(s *Store) (*persist.Snapshot, error) {
	var b bytes.Buffer
	if err := persist.WriteCheckpoint(s.Views(), &b); err != nil {
		return nil, err
	}
	return persist.Decode(&b)
}

// Broadcast reports whether the placement rule sends op to every shard.
func Broadcast(op persist.Op) bool {
	_, all, _ := route(op)
	return all
}
