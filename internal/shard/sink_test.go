package shard

import (
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/rtree"
	"graphitti/internal/workload"
)

// sink drives a shard set as a workload.Sink: each mark resolves against
// one pinned view set, everything else is the set's own method.
type sink struct{ *Store }

func (s sink) MarkImageRegion(imageID string, local rtree.Rect) (*core.Referent, error) {
	return s.Views().MarkImageRegion(imageID, local)
}

func (s sink) MarkSequenceInterval(seqID string, local interval.Interval) (*core.Referent, error) {
	return s.Views().MarkSequenceInterval(seqID, local)
}

// AsSink wraps a shard set as a scenario Sink (for this package's
// external tests too).
func AsSink(s *Store) workload.Sink { return sink{s} }
