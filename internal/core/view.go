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
//     Maps are copy-on-write (a persistent hash trie for the keyword,
//     mark-dedup and derived-target indexes and the registries, chunked posting
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
//   - Registered data is in the view and nowhere else: each kind of
//     registered object (ontologies, coordinate systems, sequences,
//     alignments, trees, interaction graphs, images, record tables with
//     their schemas and rows) is one persistent map the view holds, so a
//     mark constructor, an export or a listing run against a pinned view
//     sees exactly the registrations and record inserts published up to
//     its epoch. A listing sorts the names it collects when it is asked
//     for; a registration copies one trie path of its kind's map.
//   - The rules are in the view too: a view holds the propagator (rule
//     set) its derived table was computed under, and a rule change
//     publishes the next set with the table it produces, so a reader
//     never sees a rule without its facts or facts without their rule.
//
// Every read — table, index, tree or graph-backed — is a pure function of
// the view it runs on: it answers from the op prefix the view's epoch
// names and from nothing later.
package core

import (
	"cmp"
	"fmt"
	"slices"
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

	// The sub-structure indexes (see index.go): an interval tree per
	// coordinate domain that has a mark, an R-tree per coordinate system.
	itrees cow.Map[intervalTree]
	rtrees cow.Map[regionTree]

	// registry is the registered data, one persistent map per kind
	// (ontologies, coordinate systems, sequences, alignments, trees,
	// interaction graphs, images, record tables), each keyed by name or
	// ID. DNA, RNA and protein sequences share one ID namespace; the
	// other kinds are namespaces of their own. A listing collects a map's
	// keys and sorts them when it is asked for (names, ObjectList).
	registry [numKinds]cow.Map[any]

	annotations cow.Table[Annotation]
	referents   cow.Table[Referent]
	refByMark   cow.Map[uint64]       // canonical mark -> shared referent ID
	keywordIdx  cow.Map[cow.Postings] // keyword -> ascending annotation IDs

	// propagator is the rule set the derived table was computed under,
	// nil when there are no rules. A rule change replaces it and the
	// table together (Tx.SetPropagator).
	propagator Propagator

	// derived is the materialized derived-annotation table, keyed by
	// source annotation ID (see derived.go). Maintained by the view's
	// propagator inside the writer's critical section, so it is always
	// exactly consistent with the committed annotations of this view.
	derived      cow.Table[derivedEntry]
	derivedCount int
	derivedEpoch uint64

	// ruleIDs is the rule table of the derived table: its propagator's
	// RuleIDs, set with it. A stored fact names its rule by its place
	// here.
	ruleIDs []string

	// derivedByTarget is the target index of the derived table: for each
	// target node, keyed by its code (agraph.NodeRef.AppendCode: the kind
	// byte, then the uvarints of its numbers or its name), the ascending
	// IDs of the sources with a fact on it. It holds no fact: a reader
	// finds them in those sources' entries, in canonical order, which
	// keeps index-driven reads in the global DerivedEach order. It is maintained in the same writer
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
func emptyView(m *storeMetrics) *View { return &View{m: m} }

// clone returns a shallow successor view for the writer to specialize:
// every field still shares structure with v until the writer replaces it.
func (v *View) clone() *View {
	nv := *v
	return &nv
}

// Graph exposes the view's a-graph for path/connect queries.
func (v *View) Graph() *agraph.Graph { return &v.graph }

// kind names one of the view's registries. The data kinds, sequences
// through record tables, are the objects ObjectList lists and MarkObject
// marks.
type kind uint8

const (
	kindOntology kind = iota
	kindSystem
	kindSequence
	kindAlignment
	kindTree
	kindInteraction
	kindImage
	kindTable
	numKinds
)

// nouns name a value of each kind in errors.
var nouns = [numKinds]string{"ontology", "coordinate system", "sequence", "alignment",
	"tree", "interaction graph", "image", "record table"}

// objectTypes are the object types of the data kinds but sequences, whose
// type follows from each one's alphabet (seqObjectType).
var objectTypes = [numKinds]ObjectType{kindAlignment: TypeAlignment, kindTree: TypeTree,
	kindInteraction: TypeInteraction, kindImage: TypeImage, kindTable: TypeRecord}

// objectType returns the type of o, registered as a data object of kind k.
func objectType(k kind, o any) ObjectType {
	if k == kindSequence {
		return seqObjectType(o.(*seq.Sequence).Kind)
	}
	return objectTypes[k]
}

// objectKind returns the registry an object of type typ is in: a built-in
// type's, or the record tables', where the type is the table's name.
func objectKind(typ ObjectType) kind {
	switch typ {
	case TypeDNA, TypeRNA, TypeProtein:
		return kindSequence
	}
	for k := kindAlignment; k < kindTable; k++ {
		if objectTypes[k] == typ {
			return k
		}
	}
	return kindTable
}

// lookup returns the value registered under name in v's registry of kind
// k.
func lookup[T any](v *View, k kind, name string) (T, error) {
	o, ok := v.registry[k].Get(name)
	if !ok {
		var zero T
		switch k {
		case kindOntology:
			return zero, fmt.Errorf("%w: %s", ErrNoSuchOntology, name)
		case kindSystem:
			return zero, fmt.Errorf("%w: %s", ErrNoSuchSystem, name)
		}
		return zero, errNoSuchObject(nouns[k], name)
	}
	return o.(T), nil
}

// names returns the names registered in v's registry of kind k, sorted.
func (v *View) names(k kind) []string {
	out := make([]string, 0, v.registry[k].Len())
	v.registry[k].Each(func(name string, _ any) bool {
		out = append(out, name)
		return true
	})
	slices.Sort(out)
	return out
}

// Ontology returns a registered ontology.
func (v *View) Ontology(name string) (*ontology.Ontology, error) {
	return lookup[*ontology.Ontology](v, kindOntology, name)
}

// Ontologies returns the names of registered ontologies, sorted.
func (v *View) Ontologies() []string { return v.names(kindOntology) }

// CoordinateSystem returns a registered coordinate system.
func (v *View) CoordinateSystem(name string) (*imaging.CoordinateSystem, error) {
	return lookup[*imaging.CoordinateSystem](v, kindSystem, name)
}

// CoordinateSystems returns the names of all registered coordinate
// systems, sorted.
func (v *View) CoordinateSystems() []string { return v.names(kindSystem) }

// Sequence returns a registered sequence and its object type.
func (v *View) Sequence(id string) (*seq.Sequence, ObjectType, error) {
	sq, err := lookup[*seq.Sequence](v, kindSequence, id)
	if err != nil {
		return nil, "", err
	}
	return sq, seqObjectType(sq.Kind), nil
}

// Alignment returns a registered alignment.
func (v *View) Alignment(id string) (*msa.Alignment, error) {
	return lookup[*msa.Alignment](v, kindAlignment, id)
}

// Tree returns a registered phylogenetic tree.
func (v *View) Tree(id string) (*phylo.Tree, error) {
	return lookup[*phylo.Tree](v, kindTree, id)
}

// InteractionGraph returns a registered interaction graph.
func (v *View) InteractionGraph(id string) (*interact.Graph, error) {
	return lookup[*interact.Graph](v, kindInteraction, id)
}

// Image returns a registered image.
func (v *View) Image(id string) (*imaging.Image, error) {
	return lookup[*imaging.Image](v, kindImage, id)
}

// Images returns the IDs of all registered images, sorted.
func (v *View) Images() []string { return v.names(kindImage) }

// SequenceIDs returns the IDs of all registered sequences, sorted.
func (v *View) SequenceIDs() []string { return v.names(kindSequence) }

// AlignmentIDs returns the IDs of all registered alignments, sorted.
func (v *View) AlignmentIDs() []string { return v.names(kindAlignment) }

// TreeIDs returns the IDs of all registered phylogenetic trees, sorted.
func (v *View) TreeIDs() []string { return v.names(kindTree) }

// InteractionGraphIDs returns the IDs of all registered interaction
// graphs, sorted.
func (v *View) InteractionGraphIDs() []string { return v.names(kindInteraction) }

// RecordTables returns the names of all user record tables, sorted.
func (v *View) RecordTables() []string { return v.names(kindTable) }

// ObjectList returns every registered data object, sorted by (type, id).
func (v *View) ObjectList() []ObjectHandle {
	n := 0
	for k := kindSequence; k < numKinds; k++ {
		n += v.registry[k].Len()
	}
	out := make([]ObjectHandle, 0, n)
	for k := kindSequence; k < numKinds; k++ {
		v.registry[k].Each(func(id string, o any) bool {
			out = append(out, ObjectHandle{objectType(k, o), id})
			return true
		})
	}
	slices.SortFunc(out, func(a, b ObjectHandle) int {
		return cmp.Or(cmp.Compare(a.Type, b.Type), cmp.Compare(a.ID, b.ID))
	})
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

// IndexesKeyword reports whether the keyword index holds word, a keyword
// of some annotation as Annotation.HasToken defines it (normalized).
func (v *View) IndexesKeyword(word string) bool {
	_, ok := v.keywordIdx.Get(word)
	return ok
}

// Stats returns the view's component sizes.
func (v *View) Stats() Stats {
	return Stats{
		Annotations:       v.annotations.Len(),
		Referents:         v.referents.Len(),
		Sequences:         v.registry[kindSequence].Len(),
		Alignments:        v.registry[kindAlignment].Len(),
		Trees:             v.registry[kindTree].Len(),
		InteractionGraphs: v.registry[kindInteraction].Len(),
		Images:            v.registry[kindImage].Len(),
		Ontologies:        v.registry[kindOntology].Len(),
		IntervalTrees:     v.itrees.Len(),
		RTrees:            v.rtrees.Len(),
		GraphNodes:        v.graph.NodeCount(),
		GraphEdges:        v.graph.EdgeCount(),
		Keywords:          v.keywordIdx.Len(),
		Derived:           v.derivedCount,
	}
}

// MergedStats is the component sizes of a set of views that partition
// one store's state, as that store's own Stats would read them: what
// lives on one view (annotations, referents, objects, edges, derived
// facts) sums, ontologies (on every view) read from the first, and what
// may appear on several (keywords, graph nodes for shared terms and
// objects, interval-tree domains) counts the union, which over one view
// is that view's own count. A keyword or a node is counted on the first
// view that holds it: each view's are looked up in the views before it,
// so no set of the whole store is built.
func MergedStats(vs []*View) Stats {
	if len(vs) == 1 {
		return vs[0].Stats()
	}
	var st Stats
	domains := map[string]bool{}
	for k, v := range vs {
		earlier := vs[:k]
		vst := v.Stats()
		st.Annotations += vst.Annotations
		st.Referents += vst.Referents
		st.Sequences += vst.Sequences
		st.Alignments += vst.Alignments
		st.Trees += vst.Trees
		st.InteractionGraphs += vst.InteractionGraphs
		st.Images += vst.Images
		st.RTrees += vst.RTrees
		st.GraphEdges += vst.GraphEdges
		st.Derived += vst.Derived
		for _, d := range v.IntervalDomains() {
			domains[d] = true
		}
		v.EachKeyword(func(w string) bool {
			if !slices.ContainsFunc(earlier, func(u *View) bool { return u.IndexesKeyword(w) }) {
				st.Keywords++
			}
			return true
		})
		v.graph.NodesEach(func(n agraph.NodeRef) bool {
			if !slices.ContainsFunc(earlier, func(u *View) bool { return u.graph.HasNode(n) }) {
				st.GraphNodes++
			}
			return true
		})
	}
	st.Ontologies = vs[0].Stats().Ontologies
	st.IntervalTrees = len(domains)
	return st
}

func errNoSuchObject(noun, id string) error {
	return fmt.Errorf("%w: %s %s", ErrNoSuchObject, noun, id)
}

func errNoSuchAnnotation(id uint64) error {
	return fmt.Errorf("%w: %d", ErrNoSuchAnnotation, id)
}

func errNoSuchReferent(id uint64) error {
	return fmt.Errorf("%w: %d", ErrNoSuchReferent, id)
}

// sortAnnotations orders a result slice by annotation ID (graph joins
// discover annotations in edge order, not ID order).
func sortAnnotations(out []*Annotation) {
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
}
