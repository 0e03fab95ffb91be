package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/ontology"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
)

// Store is the Graphitti annotation management system: the registered
// data objects and record tables, the per-domain interval trees and
// per-system R-trees of marked sub-structures, the registered ontologies,
// the annotation content collection, and the a-graph joining them.
//
// The store is split into a serialized writer and an immutable,
// atomically published read view (see View): every mutation is an op of
// a writer session (Tx, run by Batch), which takes the writer mutex,
// applies, and publishes one successor snapshot; reads pin the current
// view with a single atomic load and run lock-free against it. There is
// no reader/writer contention — a slow collection scan never delays a
// commit, and a burst of commits never delays a scan.
//
// All methods are safe for concurrent use. A read runs on a pinned view:
// the read methods are View's, and a caller pins View() once for as many
// reads as must agree. The few read methods left on Store (Annotation,
// Annotations, Stats, RelatedAnnotations, ReferentsAt, SearchKeyword,
// MarkDomainInterval) pin a fresh view per call; the benchmark harness
// calls them.
type Store struct {
	// w serializes mutations, and tx is the writer session that runs
	// under it (see Batch). Readers never take w.
	w  sync.Mutex
	tx Tx
	v  atomic.Pointer[View]

	// m holds this store's shard-labelled metric children ("0" when
	// unsharded). ids, when set, allocates annotation/referent IDs from a
	// source shared across a set of sharded stores so IDs stay globally
	// unique; nil means the view's own counters allocate (the unsharded
	// behaviour). Both are fixed at construction.
	m   *storeMetrics
	ids IDSource
}

// StoreOptions configure NewStoreWithOptions. The zero value reproduces
// NewStore exactly.
type StoreOptions struct {
	// Shard labels this store's metrics; "" means "0" (unsharded).
	Shard string
	// IDs, when non-nil, replaces the view-local ID counters with a
	// shared allocator so several stores can mint non-colliding
	// annotation and referent IDs. Replayed commits with pinned IDs
	// (CommitWithIDs) bypass it.
	IDs IDSource
}

// NewStore returns an empty Graphitti store.
func NewStore() *Store { return NewStoreWithOptions(StoreOptions{}) }

// NewStoreWithOptions is NewStore for one shard of a sharded deployment:
// metrics carry the shard label and IDs come from the shared source.
func NewStoreWithOptions(opts StoreOptions) *Store {
	s := &Store{
		m:   metricsForShard(opts.Shard),
		ids: opts.IDs,
	}
	s.v.Store(emptyView(s.m))
	return s
}

// PublishGauges points the view gauges of the store's shard label
// (graphitti_store_view_epoch, _annotations, _derived_facts) at its
// current view. Every publish does so, and the newest store to publish
// under a label wins: a pipeline calls this when it starts to serve a
// store, and when a store it loaded for a restore and then dropped has
// published under its label.
func (s *Store) PublishGauges() {
	s.w.Lock()
	defer s.w.Unlock()
	s.m.set(s.v.Load())
}

// View pins the current read snapshot: one atomic load, no locks. The
// returned view is immutable; hold it for as many reads as need to be
// mutually consistent.
func (s *Store) View() *View { return s.v.Load() }

// RegisterOntology makes an ontology available for annotation references.
func (s *Store) RegisterOntology(o *ontology.Ontology) error {
	return s.Batch(func(x *Tx) error { return x.RegisterOntology(o) })
}

// RegisterOntology is Store.RegisterOntology as one op of the session.
func (x *Tx) RegisterOntology(o *ontology.Ontology) error {
	return x.register(kindOntology, o.Name(), o)
}

// RegisterCoordinateSystem makes a shared spatial reference available for
// image registration.
func (s *Store) RegisterCoordinateSystem(cs *imaging.CoordinateSystem) error {
	return s.Batch(func(x *Tx) error { return x.RegisterCoordinateSystem(cs) })
}

// RegisterCoordinateSystem is Store.RegisterCoordinateSystem as one op of
// the session. The system's R-tree goes in through the session's handle.
func (x *Tx) RegisterCoordinateSystem(cs *imaging.CoordinateSystem) error {
	tree, err := rtree.NewTree[struct{}](cs.Dims)
	if err != nil {
		return err
	}
	if err := x.register(kindSystem, cs.Name, cs); err != nil {
		return err
	}
	x.rt.Set(cs.Name, tree)
	return nil
}

func seqObjectType(k seq.Kind) ObjectType {
	switch k {
	case seq.DNA:
		return TypeDNA
	case seq.RNA:
		return TypeRNA
	default:
		return TypeProtein
	}
}

// RegisterSequence registers a DNA/RNA/protein sequence. A sequence with
// an empty Domain becomes its own coordinate domain.
func (s *Store) RegisterSequence(sq *seq.Sequence) error {
	return s.Batch(func(x *Tx) error { return x.RegisterSequence(sq) })
}

// RegisterSequence is Store.RegisterSequence as one op of the session.
func (x *Tx) RegisterSequence(sq *seq.Sequence) error {
	if err := x.register(kindSequence, sq.ID, sq); err != nil {
		return err
	}
	if sq.Domain == "" {
		sq.Domain = sq.ID
	}
	return nil
}

// RegisterAlignment registers a multiple sequence alignment.
func (s *Store) RegisterAlignment(a *msa.Alignment) error {
	return s.Batch(func(x *Tx) error { return x.RegisterAlignment(a) })
}

// RegisterAlignment is Store.RegisterAlignment as one op of the session.
func (x *Tx) RegisterAlignment(a *msa.Alignment) error {
	return x.register(kindAlignment, a.ID, a)
}

// RegisterTree registers a phylogenetic tree.
func (s *Store) RegisterTree(t *phylo.Tree) error {
	return s.Batch(func(x *Tx) error { return x.RegisterTree(t) })
}

// RegisterTree is Store.RegisterTree as one op of the session.
func (x *Tx) RegisterTree(t *phylo.Tree) error {
	return x.register(kindTree, t.ID, t)
}

// RegisterInteractionGraph registers a molecular interaction graph.
func (s *Store) RegisterInteractionGraph(g *interact.Graph) error {
	return s.Batch(func(x *Tx) error { return x.RegisterInteractionGraph(g) })
}

// RegisterInteractionGraph is Store.RegisterInteractionGraph as one op of
// the session.
func (x *Tx) RegisterInteractionGraph(g *interact.Graph) error {
	return x.register(kindInteraction, g.ID, g)
}

// RegisterImage registers an image; its coordinate system must have been
// registered first.
func (s *Store) RegisterImage(im *imaging.Image) error {
	return s.Batch(func(x *Tx) error { return x.RegisterImage(im) })
}

// RegisterImage is Store.RegisterImage as one op of the session.
func (x *Tx) RegisterImage(im *imaging.Image) error {
	if _, ok := x.open().registry[kindSystem].Get(im.System); !ok {
		return fmt.Errorf("%w: %s (register it before image %s)", ErrNoSuchSystem, im.System, im.ID)
	}
	if err := x.register(kindImage, im.ID, im); err != nil {
		return err
	}
	// A new image in a shared coordinate system can become the target of
	// existing coordinate-registration rules; registrations are rare, so
	// a full recompute over the session's sealed state keeps the derived
	// table exact without a dedicated delta path — skipped entirely when
	// no rule can be affected.
	if p := x.Propagator(); p != nil && p.RecomputeOnRegister() {
		x.seal().recomputeDerived()
	}
	return nil
}

// register files o under name in the session's registry of kind k, as
// one op: a name a kind already holds is refused, and an object of a
// built-in type (a sequence through an image) becomes a node of the
// a-graph, where marks will reach it.
func (x *Tx) register(k kind, name string, o any) error {
	nv := x.open()
	if _, dup := nv.registry[k].Get(name); dup {
		if k == kindTable {
			return fmt.Errorf("%w: table %s", relstore.ErrDuplicateName, name)
		}
		return fmt.Errorf("%w: %s %s", ErrDuplicate, nouns[k], name)
	}
	x.file(k, name, o)
	if k >= kindSequence && k < kindTable {
		x.g.AddNode(agraph.Object(string(objectType(k, o)), name))
	}
	x.ops++
	return nil
}

// file stores o under name in the session's registry of kind k.
func (x *Tx) file(k kind, name string, o any) {
	x.reg[k].Set(name, o)
	x.nv.registry[k] = x.reg[k].Map
}

// Stats summarises the store for the admin workflow.
type Stats struct {
	Annotations       int
	Referents         int
	Sequences         int
	Alignments        int
	Trees             int
	InteractionGraphs int
	Images            int
	Ontologies        int
	IntervalTrees     int
	RTrees            int
	GraphNodes        int
	GraphEdges        int
	Keywords          int
	Derived           int
}

// Stats returns current component sizes.
func (s *Store) Stats() Stats { return s.View().Stats() }
