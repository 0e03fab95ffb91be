package core

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/ontology"
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

	// propagator, when attached, computes derived annotations inside the
	// writer's critical section (see derived.go). It is attached by a
	// compare-and-swap, not under w, so read-side accessors (Propagator,
	// prop.RulesOf) never block behind a commit or a long-running derived
	// recompute, and a writer session may attach one.
	propagator atomic.Pointer[Propagator]

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
	nv := x.open()
	if _, dup := nv.ontologies[o.Name()]; dup {
		return fmt.Errorf("%w: ontology %s", ErrDuplicate, o.Name())
	}
	nv.ontologies = mapWith(nv.ontologies, o.Name(), o)
	nv.ontNames = insertSortedStr(nv.ontNames, o.Name())
	x.ops++
	return nil
}

// RegisterCoordinateSystem makes a shared spatial reference available for
// image registration.
func (s *Store) RegisterCoordinateSystem(cs *imaging.CoordinateSystem) error {
	return s.Batch(func(x *Tx) error { return x.RegisterCoordinateSystem(cs) })
}

// RegisterCoordinateSystem is Store.RegisterCoordinateSystem as one op of
// the session. The system's R-tree goes in through the session's handle.
func (x *Tx) RegisterCoordinateSystem(cs *imaging.CoordinateSystem) error {
	nv := x.open()
	if _, dup := nv.systems[cs.Name]; dup {
		return fmt.Errorf("%w: coordinate system %s", ErrDuplicate, cs.Name)
	}
	tree, err := rtree.NewTree[struct{}](cs.Dims)
	if err != nil {
		return err
	}
	nv.systems = mapWith(nv.systems, cs.Name, cs)
	nv.sysNames = insertSortedStr(nv.sysNames, cs.Name)
	x.rt.Set(cs.Name, tree)
	x.ops++
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
	nv := x.open()
	if _, dup := nv.seqs[sq.ID]; dup {
		return fmt.Errorf("%w: sequence %s", ErrDuplicate, sq.ID)
	}
	if sq.Domain == "" {
		sq.Domain = sq.ID
	}
	typ := seqObjectType(sq.Kind)
	nv.seqs = mapWith(nv.seqs, sq.ID, sq)
	nv.seqType = mapWith(nv.seqType, sq.ID, typ)
	nv.seqIDs = insertSortedStr(nv.seqIDs, sq.ID)
	x.addObject(typ, sq.ID)
	return nil
}

// RegisterAlignment registers a multiple sequence alignment.
func (s *Store) RegisterAlignment(a *msa.Alignment) error {
	return s.Batch(func(x *Tx) error { return x.RegisterAlignment(a) })
}

// RegisterAlignment is Store.RegisterAlignment as one op of the session.
func (x *Tx) RegisterAlignment(a *msa.Alignment) error {
	nv := x.open()
	if _, dup := nv.alignments[a.ID]; dup {
		return fmt.Errorf("%w: alignment %s", ErrDuplicate, a.ID)
	}
	nv.alignments = mapWith(nv.alignments, a.ID, a)
	nv.alnIDs = insertSortedStr(nv.alnIDs, a.ID)
	x.addObject(TypeAlignment, a.ID)
	return nil
}

// RegisterTree registers a phylogenetic tree.
func (s *Store) RegisterTree(t *phylo.Tree) error {
	return s.Batch(func(x *Tx) error { return x.RegisterTree(t) })
}

// RegisterTree is Store.RegisterTree as one op of the session.
func (x *Tx) RegisterTree(t *phylo.Tree) error {
	nv := x.open()
	if _, dup := nv.trees[t.ID]; dup {
		return fmt.Errorf("%w: tree %s", ErrDuplicate, t.ID)
	}
	nv.trees = mapWith(nv.trees, t.ID, t)
	nv.treeIDs = insertSortedStr(nv.treeIDs, t.ID)
	x.addObject(TypeTree, t.ID)
	return nil
}

// RegisterInteractionGraph registers a molecular interaction graph.
func (s *Store) RegisterInteractionGraph(g *interact.Graph) error {
	return s.Batch(func(x *Tx) error { return x.RegisterInteractionGraph(g) })
}

// RegisterInteractionGraph is Store.RegisterInteractionGraph as one op of
// the session.
func (x *Tx) RegisterInteractionGraph(g *interact.Graph) error {
	nv := x.open()
	if _, dup := nv.igraphs[g.ID]; dup {
		return fmt.Errorf("%w: interaction graph %s", ErrDuplicate, g.ID)
	}
	nv.igraphs = mapWith(nv.igraphs, g.ID, g)
	nv.igraphIDs = insertSortedStr(nv.igraphIDs, g.ID)
	x.addObject(TypeInteraction, g.ID)
	return nil
}

// RegisterImage registers an image; its coordinate system must have been
// registered first.
func (s *Store) RegisterImage(im *imaging.Image) error {
	return s.Batch(func(x *Tx) error { return x.RegisterImage(im) })
}

// RegisterImage is Store.RegisterImage as one op of the session.
func (x *Tx) RegisterImage(im *imaging.Image) error {
	nv := x.open()
	if _, dup := nv.images[im.ID]; dup {
		return fmt.Errorf("%w: image %s", ErrDuplicate, im.ID)
	}
	if _, ok := nv.systems[im.System]; !ok {
		return fmt.Errorf("%w: %s (register it before image %s)", ErrNoSuchSystem, im.System, im.ID)
	}
	nv.images = mapWith(nv.images, im.ID, im)
	nv.imageIDs = insertSortedStr(nv.imageIDs, im.ID)
	x.addObject(TypeImage, im.ID)
	// A new image in a shared coordinate system can become the target of
	// existing coordinate-registration rules; registrations are rare, so
	// a full recompute over the session's sealed state keeps the derived
	// table exact without a dedicated delta path — skipped entirely when
	// no rule can be affected.
	if p := x.s.Propagator(); p != nil && p.RecomputeOnRegister() {
		x.seal().recomputeDerived(p)
	}
	return nil
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

// --- helpers for the rarely-mutated registration maps/slices ---

// mapWith clones m and sets k=v; registration-rate mutations only.
func mapWith[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	out := maps.Clone(m)
	if out == nil {
		out = make(map[K]V, 1)
	}
	out[k] = v
	return out
}

// insertSortedStr returns a fresh sorted slice with s inserted.
func insertSortedStr(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	out := make([]string, 0, len(xs)+1)
	out = append(out, xs[:i]...)
	out = append(out, s)
	return append(out, xs[i:]...)
}

// addObject completes the registration of a data object, as one op: it
// lists the object in the (type, id)-sorted handle list and, through the
// session's handle, as a node of the a-graph, where marks will reach it.
func (x *Tx) addObject(typ ObjectType, id string) {
	x.nv.objects = insertSortedObject(x.nv.objects, ObjectHandle{typ, id})
	x.g.AddNode(agraph.Object(string(typ), id))
	x.ops++
}

// insertSortedObject returns a fresh (type, id)-sorted slice with h added.
func insertSortedObject(xs []ObjectHandle, h ObjectHandle) []ObjectHandle {
	i := sort.Search(len(xs), func(k int) bool {
		if xs[k].Type != h.Type {
			return xs[k].Type > h.Type
		}
		return xs[k].ID >= h.ID
	})
	out := make([]ObjectHandle, 0, len(xs)+1)
	out = append(out, xs[:i]...)
	out = append(out, h)
	return append(out, xs[i:]...)
}
