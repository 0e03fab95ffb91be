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
// atomically published read view (see View): mutations take the writer
// mutex, apply, and publish a successor snapshot; reads pin the current
// view with a single atomic load and run lock-free against it. There is
// no reader/writer contention — a slow collection scan never delays a
// commit, and a burst of commits never delays a scan.
//
// All methods are safe for concurrent use. The Store's read methods are
// per-call conveniences that pin a fresh view each time; callers needing
// several reads against one consistent snapshot should pin View() once.
type Store struct {
	// w serializes mutations. Readers never take it.
	w sync.Mutex
	v atomic.Pointer[View]

	// propagator, when attached, computes derived annotations inside the
	// writer's critical section (see derived.go). Attachment serializes
	// on w, but the pointer itself is atomic so read-side accessors
	// (Propagator, prop.RulesOf) never block behind a commit or a
	// long-running derived recompute.
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

// publish installs nv as the current view, one mutation after the last.
// Caller holds w.
func (s *Store) publish(nv *View) { s.publishOps(nv, 1) }

// publishOps installs nv as the current view, advancing the epoch by the
// ops mutations it carries and updating the view gauges. Caller holds w.
func (s *Store) publishOps(nv *View, ops uint64) {
	nv.epoch = s.v.Load().epoch + ops
	s.v.Store(nv)
	s.m.viewEpoch.Set(int64(nv.epoch))
	s.m.annotations.Set(int64(nv.annotations.Len()))
	s.m.derivedFacts.Set(int64(nv.derivedCount))
}

// RegisterOntology makes an ontology available for annotation references.
func (s *Store) RegisterOntology(o *ontology.Ontology) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.ontologies[o.Name()]; dup {
		return fmt.Errorf("%w: ontology %s", ErrDuplicate, o.Name())
	}
	nv := v.clone()
	nv.ontologies = mapWith(v.ontologies, o.Name(), o)
	nv.ontNames = insertSortedStr(v.ontNames, o.Name())
	s.publish(nv)
	return nil
}

// Ontology returns a registered ontology.
func (s *Store) Ontology(name string) (*ontology.Ontology, error) {
	return s.View().Ontology(name)
}

// Ontologies returns the names of registered ontologies, sorted.
func (s *Store) Ontologies() []string { return s.View().Ontologies() }

// RegisterCoordinateSystem makes a shared spatial reference available for
// image registration.
func (s *Store) RegisterCoordinateSystem(cs *imaging.CoordinateSystem) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.systems[cs.Name]; dup {
		return fmt.Errorf("%w: coordinate system %s", ErrDuplicate, cs.Name)
	}
	tree, err := rtree.NewTree[struct{}](cs.Dims)
	if err != nil {
		return err
	}
	nv := v.clone()
	nv.systems = mapWith(v.systems, cs.Name, cs)
	nv.sysNames = insertSortedStr(v.sysNames, cs.Name)
	rtrees := v.rtrees.Edit()
	rtrees.Set(cs.Name, tree)
	nv.rtrees = rtrees.Map
	s.publish(nv)
	return nil
}

// CoordinateSystem returns a registered coordinate system.
func (s *Store) CoordinateSystem(name string) (*imaging.CoordinateSystem, error) {
	return s.View().CoordinateSystem(name)
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
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.seqs[sq.ID]; dup {
		return fmt.Errorf("%w: sequence %s", ErrDuplicate, sq.ID)
	}
	if sq.Domain == "" {
		sq.Domain = sq.ID
	}
	typ := seqObjectType(sq.Kind)
	nv := v.clone()
	nv.seqs = mapWith(v.seqs, sq.ID, sq)
	nv.seqType = mapWith(v.seqType, sq.ID, typ)
	nv.seqIDs = insertSortedStr(v.seqIDs, sq.ID)
	nv.addObject(typ, sq.ID)
	s.publish(nv)
	return nil
}

// Sequence returns a registered sequence and its object type.
func (s *Store) Sequence(id string) (*seq.Sequence, ObjectType, error) {
	return s.View().Sequence(id)
}

// RegisterAlignment registers a multiple sequence alignment.
func (s *Store) RegisterAlignment(a *msa.Alignment) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.alignments[a.ID]; dup {
		return fmt.Errorf("%w: alignment %s", ErrDuplicate, a.ID)
	}
	nv := v.clone()
	nv.alignments = mapWith(v.alignments, a.ID, a)
	nv.alnIDs = insertSortedStr(v.alnIDs, a.ID)
	nv.addObject(TypeAlignment, a.ID)
	s.publish(nv)
	return nil
}

// Alignment returns a registered alignment.
func (s *Store) Alignment(id string) (*msa.Alignment, error) {
	return s.View().Alignment(id)
}

// RegisterTree registers a phylogenetic tree.
func (s *Store) RegisterTree(t *phylo.Tree) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.trees[t.ID]; dup {
		return fmt.Errorf("%w: tree %s", ErrDuplicate, t.ID)
	}
	nv := v.clone()
	nv.trees = mapWith(v.trees, t.ID, t)
	nv.treeIDs = insertSortedStr(v.treeIDs, t.ID)
	nv.addObject(TypeTree, t.ID)
	s.publish(nv)
	return nil
}

// Tree returns a registered phylogenetic tree.
func (s *Store) Tree(id string) (*phylo.Tree, error) {
	return s.View().Tree(id)
}

// RegisterInteractionGraph registers a molecular interaction graph.
func (s *Store) RegisterInteractionGraph(g *interact.Graph) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.igraphs[g.ID]; dup {
		return fmt.Errorf("%w: interaction graph %s", ErrDuplicate, g.ID)
	}
	nv := v.clone()
	nv.igraphs = mapWith(v.igraphs, g.ID, g)
	nv.igraphIDs = insertSortedStr(v.igraphIDs, g.ID)
	nv.addObject(TypeInteraction, g.ID)
	s.publish(nv)
	return nil
}

// InteractionGraph returns a registered interaction graph.
func (s *Store) InteractionGraph(id string) (*interact.Graph, error) {
	return s.View().InteractionGraph(id)
}

// RegisterImage registers an image; its coordinate system must have been
// registered first.
func (s *Store) RegisterImage(im *imaging.Image) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.images[im.ID]; dup {
		return fmt.Errorf("%w: image %s", ErrDuplicate, im.ID)
	}
	if _, ok := v.systems[im.System]; !ok {
		return fmt.Errorf("%w: %s (register it before image %s)", ErrNoSuchSystem, im.System, im.ID)
	}
	nv := v.clone()
	nv.images = mapWith(v.images, im.ID, im)
	nv.imageIDs = insertSortedStr(v.imageIDs, im.ID)
	nv.addObject(TypeImage, im.ID)
	// A new image in a shared coordinate system can become the target of
	// existing coordinate-registration rules; registrations are rare, so
	// a full recompute keeps the derived table exact without a dedicated
	// delta path — skipped entirely when no rule can be affected.
	if p := s.getPropagator(); p != nil && p.RecomputeOnRegister() {
		s.recomputeDerivedInto(nv)
	}
	s.publish(nv)
	return nil
}

// Image returns a registered image.
func (s *Store) Image(id string) (*imaging.Image, error) {
	return s.View().Image(id)
}

// Images returns the IDs of all registered images, sorted.
func (s *Store) Images() []string { return s.View().Images() }

// SequenceIDs returns the IDs of all registered sequences, sorted.
func (s *Store) SequenceIDs() []string { return s.View().SequenceIDs() }

// AlignmentIDs returns the IDs of all registered alignments, sorted.
func (s *Store) AlignmentIDs() []string { return s.View().AlignmentIDs() }

// TreeIDs returns the IDs of all registered phylogenetic trees, sorted.
func (s *Store) TreeIDs() []string { return s.View().TreeIDs() }

// InteractionGraphIDs returns the IDs of all registered interaction
// graphs, sorted.
func (s *Store) InteractionGraphIDs() []string { return s.View().InteractionGraphIDs() }

// CoordinateSystems returns the names of all registered coordinate
// systems, sorted.
func (s *Store) CoordinateSystems() []string { return s.View().CoordinateSystems() }

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

// addObject lists a newly registered data object in nv, a successor view
// under construction: in the (type, id)-sorted handle list and as a node
// of the a-graph, where marks will reach it.
func (nv *View) addObject(typ ObjectType, id string) {
	nv.objects = insertSortedObject(nv.objects, ObjectHandle{typ, id})
	g := nv.graph.Edit()
	g.AddNode(agraph.Object(string(typ), id))
	nv.graph = *g.Graph()
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
