package core

import (
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/cow"
	"graphitti/internal/trace"
)

// Tx is a writer session: it owns the successor view under construction
// and one open edit handle per persistent container, and it is where
// Commit, CommitWithIDs and DeleteAnnotation are implemented. Each op reads
// the session's own state, so it sees the ops before it; readers see none
// of them until the session publishes, as one view whose epoch advances by
// the number of ops it carries. The Store's single-op methods are sessions
// of one; Batch runs many ops in one session.
//
// With a propagator attached every op publishes on its own, because the
// derived delta is defined between two published views.
//
// A Tx is valid only inside the Store method that created it, on the
// goroutine holding the writer mutex.
type Tx struct {
	s    *Store
	base *View  // the published view nv succeeds
	nv   *View  // successor under construction; nil until the first op
	ops  uint64 // ops applied to nv since base

	anns cow.TableEdit[Annotation]
	refs cow.TableEdit[Referent]
	kw   cow.MapEdit[cow.Postings]
	rbm  cow.MapEdit[uint64]
	it   cow.MapEdit[intervalTree]
	rt   cow.MapEdit[regionTree]
	g    agraph.Edit
}

// Batch runs fn as one writer session: it holds the writer mutex across
// every op fn applies through tx and publishes them together when fn
// returns. If fn returns an error the ops applied before it are published
// all the same — each op is atomic, a batch is not — and the error is
// returned. fn must not call the Store's own mutation methods.
func (s *Store) Batch(fn func(tx *Tx) error) error {
	s.w.Lock()
	defer s.w.Unlock()
	tx := Tx{s: s}
	defer tx.publish()
	return fn(&tx)
}

// open starts the successor view if the session has none.
func (x *Tx) open() {
	if x.nv != nil {
		return
	}
	x.base = x.s.v.Load()
	x.nv = x.base.clone()
	x.anns, x.refs = x.base.annotations.Edit(), x.base.referents.Edit()
	x.kw, x.rbm = x.base.keywordIdx.Edit(), x.base.refByMark.Edit()
	x.it, x.rt = x.base.itrees.Edit(), x.base.rtrees.Edit()
	x.g = x.base.graph.Edit()
}

// seal folds the edit handles into nv, making it a complete view of the
// session's state; no op may follow without a publish. Idempotent.
func (x *Tx) seal() *View {
	nv := x.nv
	nv.annotations, nv.referents = x.anns.Table, x.refs.Table
	nv.keywordIdx, nv.refByMark = x.kw.Map, x.rbm.Map
	nv.itrees, nv.rtrees = x.it.Map, x.rt.Map
	nv.graph = *x.g.Graph()
	return nv
}

// publish makes the session's ops visible, if there are any, and leaves
// the session ready to open a fresh successor.
func (x *Tx) publish() {
	if x.ops > 0 {
		x.s.publishOps(x.seal(), x.ops)
	}
	*x = Tx{s: x.s}
}

// propagate folds the attached propagator's delta for the op just applied
// into the session and publishes it. The propagator sees the fully-built
// successor view, so a mutation and its derived consequences publish as
// one view. No-op without a propagator.
func (x *Tx) propagate(ann *Annotation, deleted bool, sp *trace.Span) {
	p := x.s.getPropagator()
	if p == nil {
		return
	}
	nv := x.seal()
	start := time.Now()
	x.s.applyDerivedDelta(nv, propagatorDelta(p, x.base, nv, ann, deleted, sp))
	x.s.m.propDelta.Observe(time.Since(start).Seconds())
	x.publish()
}
