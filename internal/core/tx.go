package core

import (
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/cow"
	"graphitti/internal/trace"
)

// Tx is a writer session: it owns the successor view under construction
// and one open edit handle per persistent container, and every mutation
// the store has — each OpKind — is one of its methods. Each op reads the
// session's own state, so it sees the ops before it; readers see none of
// them until the session publishes, as one view whose epoch advances by
// the number of ops it carries. The Store's mutation methods are sessions
// of one; Batch runs many ops in one session.
//
// Derived state is a step of the session, not a publish: an op that needs
// it (a commit or delete under a propagator, a rule change, an
// image a co-registration rule can reach) seals the session's state, lets
// the propagator read the sealed state and the one before it, folds the
// result in, and leaves the sealed state as the one the next op reopens
// the edit handles from. A sealed state is as frozen as a published view:
// a re-opened cow.Map edit starts a new generation, a TableEdit copies
// the chunks of its base, and posting and adjacency tails are extended
// only past the length the sealed state holds.
//
// A Tx is valid only inside the Batch that runs it, on the goroutine
// holding the writer mutex: the store keeps one, reused by every session,
// so a session of one allocates no Tx.
type Tx struct {
	s   *Store
	pre *View  // the session's last sealed state: the published view until an op seals one
	nv  *View  // successor of pre under construction; nil until an op opens it
	ops uint64 // ops applied since the published view

	anns cow.TableEdit[Annotation]
	refs cow.TableEdit[Referent]
	kw   cow.MapEdit[cow.Postings]
	rbm  cow.MapEdit[uint64]
	it   cow.MapEdit[intervalTree]
	rt   cow.MapEdit[regionTree]
	g    agraph.Edit

	// reg edits the registries. A registration writes through to nv's
	// registry (file), so the session's later ops read it there.
	reg [numKinds]cow.MapEdit[any]
}

// Batch runs fn as one writer session: it holds the writer mutex across
// every op fn applies through tx and publishes them together when fn
// returns. If fn returns an error the ops applied before it are published
// all the same — each op is atomic, a batch is not — and the error is
// returned. fn must not call the Store's own mutation methods (each is a
// session of its own).
func (s *Store) Batch(fn func(tx *Tx) error) error {
	s.w.Lock()
	defer s.w.Unlock()
	s.tx = Tx{s: s}
	defer s.tx.publish()
	return fn(&s.tx)
}

// open returns the successor view, starting it from the session's last
// sealed state if none is open.
func (x *Tx) open() *View {
	if x.nv != nil {
		return x.nv
	}
	if x.pre == nil {
		x.pre = x.s.v.Load()
	}
	x.nv = x.pre.clone()
	x.anns, x.refs = x.pre.annotations.Edit(), x.pre.referents.Edit()
	x.kw, x.rbm = x.pre.keywordIdx.Edit(), x.pre.refByMark.Edit()
	x.it, x.rt = x.pre.itrees.Edit(), x.pre.rtrees.Edit()
	x.g = x.pre.graph.Edit()
	for k := range x.reg {
		x.reg[k] = x.pre.registry[k].Edit()
	}
	return x.nv
}

// seal folds the edit handles into nv, making it a complete view of the
// session's state, and makes that the state the next op starts from: the
// handles are reopened from it, lazily, by the next open.
func (x *Tx) seal() *View {
	nv := x.nv
	nv.annotations, nv.referents = x.anns.Table, x.refs.Table
	nv.keywordIdx, nv.refByMark = x.kw.Map, x.rbm.Map
	nv.itrees, nv.rtrees = x.it.Map, x.rt.Map
	nv.graph = *x.g.Graph()
	x.pre, x.nv = nv, nil
	return nv
}

// publish makes the session's ops visible, if there are any — the one
// place a view is published — and ends the session.
func (x *Tx) publish() {
	if x.ops > 0 {
		if x.nv != nil {
			x.seal()
		}
		nv := x.pre
		nv.epoch = x.s.v.Load().epoch + x.ops
		x.s.v.Store(nv)
		x.s.m.set(nv)
	}
	*x = Tx{}
}

// propagate folds the session propagator's delta for the op just applied
// into the session: the delta runs between the session's last sealed
// state and the one this op leaves, so a mutation and its derived
// consequences are one step of the session and publish with it. The ops
// since the last sealed state that did not seal (registrations, records,
// counters) add no annotation, referent or mark, which is all a delta
// reads of its pre state. No-op without a propagator.
func (x *Tx) propagate(ann *Annotation, deleted bool, sp *trace.Span) {
	p := x.Propagator()
	if p == nil {
		return
	}
	pre := x.pre
	post := x.seal()
	start := time.Now()
	dsp := sp.StartChild("prop.delta")
	delta := p.Delta(pre, post, ann, deleted, dsp)
	dsp.Finish()
	post.applyDerivedDelta(delta)
	x.s.m.propDelta.Observe(time.Since(start).Seconds())
}
