package core

import (
	"time"

	"graphitti/internal/agraph"
)

// DeleteAnnotation removes a committed annotation: its content document,
// its keyword index entries, and its a-graph edges. Referents that no
// other annotation references are garbage-collected from the sub-structure
// indexes (the paper's admin tab owns this lifecycle; deletion must not
// orphan index entries). Like Commit, the removal is published as one new
// view: a pinned reader keeps seeing the annotation, complete — tables,
// keyword index and graph joins alike — until it re-pins.
func (s *Store) DeleteAnnotation(id uint64) error {
	return s.Batch(func(x *Tx) error { return x.DeleteAnnotation(id) })
}

// DeleteAnnotation is Store.DeleteAnnotation as one op of the session.
func (x *Tx) DeleteAnnotation(id uint64) error {
	start := time.Now()
	s := x.s
	x.open()
	ann := x.anns.Get(id)
	if ann == nil {
		return errNoSuchAnnotation(id)
	}

	// Keyword index entries: each posting list copies the one chunk that
	// held the ID.
	for _, word := range ann.Content.Keywords() {
		ids, _ := x.kw.Get(word)
		if pruned := ids.Without(id); pruned.Len() == 0 {
			x.kw.Delete(word)
		} else {
			x.kw.Set(word, pruned)
		}
	}

	// a-graph: drop the content node (and its annotates/refersTo edges).
	contentNode := agraph.ContentRoot(id)
	_ = x.g.RemoveNode(contentNode) // node exists for every commit

	x.anns.Delete(id)

	// Garbage-collect now-unreferenced referents.
	for refID := range ann.ReferentIDs {
		ref := x.refs.Get(refID)
		if ref == nil {
			continue
		}
		refNode := agraph.Referent(refID)
		if x.g.Graph().InCount(refNode, agraph.LabelAnnotates) > 0 {
			continue // still referenced
		}
		x.unindex(ref)
		x.rbm.Delete(markKey(ref))
		x.refs.Delete(refID)
		_ = x.g.RemoveNode(refNode)
	}
	// Derived annotations: drop the deleted source's facts and recompute
	// its neighborhood, so no derived fact survives its source or targets
	// a garbage-collected referent. The pre-delete view still holds the
	// GC'd referents in its trees and its a-graph, which is how the
	// propagator finds the affected neighbors.
	x.ops++
	x.propagate(ann, true, nil)
	s.m.deleteSeconds.Observe(time.Since(start).Seconds())
	return nil
}
