package shard

import (
	"bytes"

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
