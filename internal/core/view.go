// The snapshot-isolated read path. A View is an immutable, atomically
// published image of the store: every read runs lock-free against a
// pinned view, so a slow collection scan never blocks writers and a
// burst of commits never stalls readers — the paper's multi-user setting
// ("heavy traffic from millions of users") with the anomaly-free
// semantics snapshot isolation gives annotation systems.
//
// What a view guarantees:
//
//   - Immutability: nothing reachable from a View changes after Publish.
//     Maps are copy-on-write (a persistent hash trie for the high-churn
//     keyword, mark-dedup and derived-target indexes, chunked posting
//     lists under the keyword index, chunked ID tables for
//     annotations/referents; see internal/cow), the interval/R-trees are
//     persistent values the view holds by domain in one more such trie,
//     and the a-graph is one more value built from the same containers: a
//     successor shares all but the pieces an op touched with what an
//     earlier view holds and never writes a piece of it. The one write a
//     published structure does see lands past its end: a posting list's
//     newest IDs, and an adjacency list's newest edges, are appended into
//     spare capacity beyond the length every earlier view holds, which no
//     reader of those views indexes. What it costs the writer: per op, a
//     copy of each trie node, list chunk and table chunk the op is the
//     first of its session (Tx) to touch, and a search path of each
//     spatial tree it marks; per session, one publish — pointer stores —
//     whether it carries one op or a whole snapshot.
//   - Annotation atomicity: an annotation is visible in a view with all
//     of its referents, its complete keyword postings, its content
//     document and every a-graph edge that joins it to them, or not at
//     all — never half-applied, and a deleted one is gone from all of
//     them together.
//   - Registered data is in the view and nowhere else: every object
//     registry and every record table (schema and rows) is a value the
//     view holds, so a mark constructor, an export or a listing run
//     against a pinned view sees exactly the registrations and record
//     inserts published up to its epoch.
//
// Every read — table, index, tree or graph-backed — is a pure function of
// the view it runs on: it answers from the op prefix the view's epoch
// names and from nothing later.
package core

import (
	"fmt"
	"sort"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/cow"
	"graphitti/internal/ontology"
)

// View is an immutable snapshot of the store, published atomically by the
// serialized writer. All methods are safe for concurrent use by any
// number of readers and never block on (or observe) concurrent writers.
type View struct {
	// graph is the a-graph: the labeled join index over everything below.
	graph agraph.Graph

	ontologies map[string]*ontology.Ontology
	ontNames   []string // sorted
	systems    map[string]*imaging.CoordinateSystem
	sysNames   []string // sorted

	// The sub-structure indexes (see index.go): an interval tree per
	// coordinate domain that has a mark, an R-tree per coordinate system.
	itrees cow.Map[intervalTree]
	rtrees cow.Map[regionTree]

	seqs       map[string]*seq.Sequence
	seqType    map[string]ObjectType
	seqIDs     []string // sorted
	alignments map[string]*msa.Alignment
	alnIDs     []string // sorted
	trees      map[string]*phylo.Tree
	treeIDs    []string // sorted
	igraphs    map[string]*interact.Graph
	igraphIDs  []string // sorted
	images     map[string]*imaging.Image
	imageIDs   []string // sorted

	recordTables  cow.Map[recordTable] // by table name
	recTableNames []string             // sorted

	// objects is the (type, id)-sorted list of every registered data
	// object, maintained at registration time so ObjectList never sorts.
	objects []ObjectHandle

	annotations cow.Table[Annotation]
	referents   cow.Table[Referent]
	refByMark   cow.Map[uint64]       // canonical mark -> shared referent ID
	keywordIdx  cow.Map[cow.Postings] // keyword -> ascending annotation IDs

	// derived is the materialized derived-annotation table, keyed by
	// source annotation ID (see derived.go). Maintained by the attached
	// Propagator inside the writer's critical section, so it is always
	// exactly consistent with the committed annotations of this view.
	derived      cow.Table[derivedEntry]
	derivedCount int
	derivedEpoch uint64

	// derivedByTarget is the target index of the derived table: for each
	// target node ("kind:key"), the ascending IDs of the sources with a
	// fact on it. It holds no fact: a reader finds them in those sources'
	// entries, in canonical order, which keeps index-driven reads in the
	// global DerivedEach order. It is maintained in the same writer
	// critical section as derived and published with the same view, so
	// the two are always exactly consistent.
	derivedByTarget cow.Map[cow.Postings]

	nextAnn, nextRef uint64

	// epoch counts the mutations behind this view: the empty view is 0 and
	// every publish adds the mutations it carries, so readers (and the
	// view-epoch gauge) can tell how far a pinned snapshot lags the live
	// store.
	epoch uint64

	// m is the owning store's shard-labelled metric set; read-side
	// instruments (search latency) report through it so per-shard
	// attribution survives into pinned views.
	m *storeMetrics
}

// Epoch returns the view's mutation count: 0 for a fresh store, advanced
// at each publish by the number of mutations the publish carries (one for
// a live commit, many for a batch). The difference between two epochs is
// the number of mutations published between them.
func (v *View) Epoch() uint64 { return v.epoch }

// emptyView returns the view of a fresh store.
func emptyView(m *storeMetrics) *View {
	return &View{
		m:          m,
		ontologies: map[string]*ontology.Ontology{},
		systems:    map[string]*imaging.CoordinateSystem{},
		seqs:       map[string]*seq.Sequence{},
		seqType:    map[string]ObjectType{},
		alignments: map[string]*msa.Alignment{},
		trees:      map[string]*phylo.Tree{},
		igraphs:    map[string]*interact.Graph{},
		images:     map[string]*imaging.Image{},
	}
}

// clone returns a shallow successor view for the writer to specialize:
// every field still shares structure with v until the writer replaces it.
func (v *View) clone() *View {
	nv := *v
	return &nv
}

// Graph exposes the view's a-graph for path/connect queries.
func (v *View) Graph() *agraph.Graph { return &v.graph }

// Ontology returns a registered ontology.
func (v *View) Ontology(name string) (*ontology.Ontology, error) {
	o, ok := v.ontologies[name]
	if !ok {
		return nil, errNoSuchOntology(name)
	}
	return o, nil
}

// Ontologies returns the names of registered ontologies, sorted.
func (v *View) Ontologies() []string { return copyStrings(v.ontNames) }

// CoordinateSystem returns a registered coordinate system.
func (v *View) CoordinateSystem(name string) (*imaging.CoordinateSystem, error) {
	cs, ok := v.systems[name]
	if !ok {
		return nil, errNoSuchSystem(name)
	}
	return cs, nil
}

// CoordinateSystems returns the names of all registered coordinate
// systems, sorted.
func (v *View) CoordinateSystems() []string { return copyStrings(v.sysNames) }

// Sequence returns a registered sequence and its object type.
func (v *View) Sequence(id string) (*seq.Sequence, ObjectType, error) {
	sq, ok := v.seqs[id]
	if !ok {
		return nil, "", errNoSuchObject("sequence", id)
	}
	return sq, v.seqType[id], nil
}

// Alignment returns a registered alignment.
func (v *View) Alignment(id string) (*msa.Alignment, error) {
	a, ok := v.alignments[id]
	if !ok {
		return nil, errNoSuchObject("alignment", id)
	}
	return a, nil
}

// Tree returns a registered phylogenetic tree.
func (v *View) Tree(id string) (*phylo.Tree, error) {
	t, ok := v.trees[id]
	if !ok {
		return nil, errNoSuchObject("tree", id)
	}
	return t, nil
}

// InteractionGraph returns a registered interaction graph.
func (v *View) InteractionGraph(id string) (*interact.Graph, error) {
	g, ok := v.igraphs[id]
	if !ok {
		return nil, errNoSuchObject("interaction graph", id)
	}
	return g, nil
}

// Image returns a registered image.
func (v *View) Image(id string) (*imaging.Image, error) {
	im, ok := v.images[id]
	if !ok {
		return nil, errNoSuchObject("image", id)
	}
	return im, nil
}

// Images returns the IDs of all registered images, sorted.
func (v *View) Images() []string { return copyStrings(v.imageIDs) }

// SequenceIDs returns the IDs of all registered sequences, sorted.
func (v *View) SequenceIDs() []string { return copyStrings(v.seqIDs) }

// AlignmentIDs returns the IDs of all registered alignments, sorted.
func (v *View) AlignmentIDs() []string { return copyStrings(v.alnIDs) }

// TreeIDs returns the IDs of all registered phylogenetic trees, sorted.
func (v *View) TreeIDs() []string { return copyStrings(v.treeIDs) }

// InteractionGraphIDs returns the IDs of all registered interaction
// graphs, sorted.
func (v *View) InteractionGraphIDs() []string { return copyStrings(v.igraphIDs) }

// RecordTables returns the names of all user record tables, sorted.
func (v *View) RecordTables() []string { return copyStrings(v.recTableNames) }

// ObjectList returns every registered data object, sorted by (type, id).
// The list is maintained at registration time, so this is a copy, not a
// scan-and-sort.
func (v *View) ObjectList() []ObjectHandle {
	out := make([]ObjectHandle, len(v.objects))
	copy(out, v.objects)
	return out
}

// Annotation returns a committed annotation by ID.
func (v *View) Annotation(id uint64) (*Annotation, error) {
	if a := v.annotations.Get(id); a != nil {
		return a, nil
	}
	return nil, errNoSuchAnnotation(id)
}

// Annotations returns all committed annotations, sorted by ID.
func (v *View) Annotations() []*Annotation {
	out := make([]*Annotation, 0, v.annotations.Len())
	v.annotations.Each(func(_ uint64, a *Annotation) bool {
		out = append(out, a)
		return true
	})
	return out
}

// AnnotationsEach visits every committed annotation in ascending ID order,
// without copying, until fn returns false.
func (v *View) AnnotationsEach(fn func(*Annotation) bool) {
	v.annotations.Each(func(_ uint64, a *Annotation) bool { return fn(a) })
}

// Referent returns a committed referent by ID.
func (v *View) Referent(id uint64) (*Referent, error) {
	if r := v.referents.Get(id); r != nil {
		return r, nil
	}
	return nil, errNoSuchReferent(id)
}

// ReferentsEach visits every committed referent in ascending ID order,
// without copying, until fn returns false.
func (v *View) ReferentsEach(fn func(*Referent) bool) {
	v.referents.Each(func(_ uint64, r *Referent) bool { return fn(r) })
}

// IDCounters returns the annotation and referent ID counters as of this
// view (the next commit assigns nextAnn+1 / nextRef+1).
func (v *View) IDCounters() (nextAnn, nextRef uint64) { return v.nextAnn, v.nextRef }

// EachKeyword visits every indexed keyword in unspecified order, stopping
// early when fn returns false. A sharded deployment uses this to count
// the distinct-keyword union across shards without materialising posting
// lists.
func (v *View) EachKeyword(fn func(word string) bool) {
	v.keywordIdx.Each(func(word string, _ cow.Postings) bool { return fn(word) })
}

// IndexesKeyword reports whether the keyword index holds word, a token
// as xmldoc.Document.Keywords produces it (see NormalizeKeyword).
func (v *View) IndexesKeyword(word string) bool {
	_, ok := v.keywordIdx.Get(word)
	return ok
}

// Stats returns the view's component sizes.
func (v *View) Stats() Stats {
	return Stats{
		Annotations:       v.annotations.Len(),
		Referents:         v.referents.Len(),
		Sequences:         len(v.seqs),
		Alignments:        len(v.alignments),
		Trees:             len(v.trees),
		InteractionGraphs: len(v.igraphs),
		Images:            len(v.images),
		Ontologies:        len(v.ontologies),
		IntervalTrees:     v.itrees.Len(),
		RTrees:            v.rtrees.Len(),
		GraphNodes:        v.graph.NodeCount(),
		GraphEdges:        v.graph.EdgeCount(),
		Keywords:          v.keywordIdx.Len(),
		Derived:           v.derivedCount,
	}
}

func errNoSuchOntology(name string) error {
	return fmt.Errorf("%w: %s", ErrNoSuchOntology, name)
}

func errNoSuchSystem(name string) error {
	return fmt.Errorf("%w: %s", ErrNoSuchSystem, name)
}

func errNoSuchObject(kind, id string) error {
	return fmt.Errorf("%w: %s %s", ErrNoSuchObject, kind, id)
}

func errNoSuchAnnotation(id uint64) error {
	return fmt.Errorf("%w: %d", ErrNoSuchAnnotation, id)
}

func errNoSuchReferent(id uint64) error {
	return fmt.Errorf("%w: %d", ErrNoSuchReferent, id)
}

func copyStrings(xs []string) []string {
	out := make([]string, len(xs))
	copy(out, xs)
	return out
}

// sortAnnotations orders a result slice by annotation ID (graph joins
// discover annotations in edge order, not ID order).
func sortAnnotations(out []*Annotation) {
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
}
