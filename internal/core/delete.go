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
// view: a pinned reader's table and keyword-index reads keep seeing the
// annotation, complete, until it re-pins. The a-graph is a shared handle,
// so the content node disappears from the join index immediately — a
// pinned view's graph joins may stop finding an annotation its tables
// still hold (they never surface one its tables lack; see the View
// contract in view.go).
func (s *Store) DeleteAnnotation(id uint64) error {
	s.w.Lock()
	defer s.w.Unlock()
	tx := Tx{s: s}
	defer tx.publish()
	return tx.DeleteAnnotation(id)
}

// DeleteAnnotation is Store.DeleteAnnotation as one op of the session.
func (x *Tx) DeleteAnnotation(id uint64) error {
	start := time.Now()
	s := x.s
	x.open()
	ann := x.anns.get(id)
	if ann == nil {
		return errNoSuchAnnotation(id)
	}

	// Keyword index entries: each posting list copies the one chunk that
	// held the ID.
	for _, word := range ann.Content.Keywords() {
		ids, _ := x.kw.get(word)
		if pruned := ids.without(id); pruned.len() == 0 {
			x.kw.delete(word)
		} else {
			x.kw.set(word, pruned)
		}
	}

	// a-graph: drop the content node (and its annotates/refersTo edges).
	contentNode := agraph.ContentRoot(id)
	_ = s.graph.RemoveNode(contentNode) // node exists for every commit

	x.anns.delete(id)

	// Garbage-collect now-unreferenced referents.
	for _, refID := range ann.ReferentIDs {
		ref := x.refs.get(refID)
		if ref == nil {
			continue
		}
		refNode := agraph.Referent(refID)
		if s.graph.InCount(refNode, agraph.LabelAnnotates) > 0 {
			continue // still referenced
		}
		x.unindex(ref)
		x.rbm.delete(markKey(ref))
		x.refs.delete(refID)
		_ = s.graph.RemoveNode(refNode)
	}
	// Derived annotations: drop the deleted source's facts and recompute
	// its neighborhood, so no derived fact survives its source or targets
	// a garbage-collected referent. The pre-delete view still holds the
	// GC'd referents in its trees, which is how the propagator
	// finds the affected neighbors.
	x.ops++
	x.propagate(ann, true, nil)
	s.m.deletes.Inc()
	s.m.deleteSeconds.Observe(time.Since(start).Seconds())
	return nil
}
