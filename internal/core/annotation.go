package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/dublincore"
	"graphitti/internal/trace"
	"graphitti/internal/xmldoc"
)

// Annotation is the linker object of the Graphitti model: it connects an
// XML content document to referents and ontology terms. Instances are
// immutable once committed.
type Annotation struct {
	ID uint64
	// Content is the annotation's XML document (Dublin Core elements,
	// body, user-defined tags, referent and ontology-reference stanzas).
	Content *xmldoc.Document
	// DC is the parsed Dublin Core record.
	DC *dublincore.Record
	// ReferentIDs are the committed referents, in builder order.
	ReferentIDs []uint64
	// Terms are the ontology references.
	Terms []TermRef

	// encoded is a serving layer's rendering of the annotation, kept
	// beside it (see Encoded).
	encoded atomic.Pointer[string]
}

// Encoded returns the rendering a reader stored with SetEncoded, or ""
// when none has yet. A committed annotation never changes, so a rendering
// of it is a pure function of the pointer: the slot needs no invalidation
// and is freed with the annotation. Its content is opaque to core, which
// never fills it — commit, load and replay leave it empty, so a store
// that is only written to carries the eight bytes of the slot and nothing
// more. The slot has one owner, internal/httpapi's wire encoder; a second
// rendering would need a slot of its own.
func (a *Annotation) Encoded() string {
	if p := a.encoded.Load(); p != nil {
		return *p
	}
	return ""
}

// SetEncoded stores s as the annotation's rendering. Concurrent callers
// must be storing equal strings: whichever store lands last is kept.
func (a *Annotation) SetEncoded(s string) { a.encoded.Store(&s) }

// Builder assembles an annotation prior to Commit. Builders are not safe
// for concurrent use; each goroutine should use its own.
type Builder struct {
	store *Store
	dc    dublincore.Record
	title string
	body  string
	tags  []tagPair
	refs  []*Referent
	terms []TermRef
	errs  []error
	span  *trace.Span
}

type tagPair struct {
	name, value string
}

// NewAnnotation starts an annotation builder.
func (s *Store) NewAnnotation() *Builder {
	return &Builder{store: s}
}

// NewBuilder starts a store-free annotation builder: any store can commit
// it. A sharded router uses this to assemble the annotation first and
// pick the owning shard from the referents afterwards.
func NewBuilder() *Builder { return &Builder{} }

// WithSpan attaches a trace span to the builder: commit-path layers
// (router, writer, WAL) hang their child spans off it as the builder
// crosses them. The builder is the one value that travels the whole
// commit pipeline, so it carries the trace instead of every layer
// growing a context parameter. Nil clears it.
func (b *Builder) WithSpan(sp *trace.Span) *Builder {
	b.span = sp
	return b
}

// Span returns the span attached with WithSpan, or nil.
func (b *Builder) Span() *trace.Span { return b.span }

// SetSpan is WithSpan without the chaining return, for layers that
// re-point the builder at a child span and restore it after.
func (b *Builder) SetSpan(sp *trace.Span) { b.span = sp }

// Referents returns the referents attached so far, in builder order. The
// slice is shared with the builder; callers must not mutate it.
func (b *Builder) Referents() []*Referent { return b.refs }

// TermRefs returns the ontology references attached so far, in builder
// order. The slice is shared with the builder; callers must not mutate it.
func (b *Builder) TermRefs() []TermRef { return b.terms }

// Creator sets the Dublin Core creator element.
func (b *Builder) Creator(name string) *Builder {
	b.recordErr(b.dc.Add(dublincore.Creator, name))
	return b
}

// Date sets the Dublin Core date element.
func (b *Builder) Date(date string) *Builder {
	b.recordErr(b.dc.Set(dublincore.Date, date))
	return b
}

// Title sets the Dublin Core title element.
func (b *Builder) Title(title string) *Builder {
	b.title = title
	b.recordErr(b.dc.Set(dublincore.Title, title))
	return b
}

// Subject adds a Dublin Core subject element.
func (b *Builder) Subject(subject string) *Builder {
	b.recordErr(b.dc.Add(dublincore.Subject, subject))
	return b
}

// DCElement sets an arbitrary Dublin Core element.
func (b *Builder) DCElement(e dublincore.Element, values ...string) *Builder {
	b.recordErr(b.dc.Set(e, values...))
	return b
}

// Body sets the free-text comment of the annotation.
func (b *Builder) Body(text string) *Builder {
	b.body = text
	return b
}

// Tag adds a user-defined element (the paper's "other user-defined tags").
func (b *Builder) Tag(name, value string) *Builder {
	b.tags = append(b.tags, tagPair{name, value})
	return b
}

// Refer attaches a referent produced by one of the Mark* constructors (or
// an already-committed referent, enabling shared referents).
func (b *Builder) Refer(r *Referent) *Builder {
	if r == nil {
		b.errs = append(b.errs, fmt.Errorf("%w: nil referent", ErrBadMark))
		return b
	}
	b.refs = append(b.refs, r)
	return b
}

// OntologyRef attaches a reference to an ontology term.
func (b *Builder) OntologyRef(ontologyName, termID string) *Builder {
	b.terms = append(b.terms, TermRef{Ontology: ontologyName, TermID: termID})
	return b
}

func (b *Builder) recordErr(err error) {
	if err != nil {
		b.errs = append(b.errs, err)
	}
}

// MaxID is the largest annotation or referent ID a caller may pin
// (CommitWithIDs, RestoreIDCounters). The ID tables are dense arrays whose
// spine costs 8 bytes per 256 IDs, so the ceiling bounds what a hostile
// snapshot or WAL record can make the store allocate (32 MiB per table)
// while leaving room for a billion IDs per store.
const MaxID = 1 << 30

// Commit validates the annotation, stores its content document, registers
// its referents in the sub-structure indexes, and wires the a-graph. It
// implements the paper's commit flow: the user assembles referents and
// ontology references, previews the XML, and the annotation "is committed
// to the annotation storage". The new state becomes visible to readers
// atomically, as one published view — a concurrent reader sees either the
// whole annotation or none of it.
func (s *Store) Commit(b *Builder) (*Annotation, error) {
	s.w.Lock()
	defer s.w.Unlock()
	tx := Tx{s: s}
	defer tx.publish()
	return tx.Commit(b)
}

// CommitWithIDs commits with a pinned annotation ID and pinned referent
// IDs (one per builder referent; 0 leaves a referent unpinned). Snapshot
// load and WAL replay use it so a recovered store assigns exactly the IDs
// the original store assigned, even when deletions left gaps in the
// sequence. Pinned IDs may not exceed MaxID or collide with existing
// objects, and a pinned referent that dedups into an existing shared mark
// must carry that mark's ID.
func (s *Store) CommitWithIDs(b *Builder, annID uint64, refIDs []uint64) (*Annotation, error) {
	s.w.Lock()
	defer s.w.Unlock()
	tx := Tx{s: s}
	defer tx.publish()
	return tx.CommitWithIDs(b, annID, refIDs)
}

// Commit is Store.Commit as one op of the session.
func (x *Tx) Commit(b *Builder) (*Annotation, error) {
	return x.commit(b, 0, nil)
}

// CommitWithIDs is Store.CommitWithIDs as one op of the session.
func (x *Tx) CommitWithIDs(b *Builder, annID uint64, refIDs []uint64) (*Annotation, error) {
	if annID == 0 {
		return nil, fmt.Errorf("core: pinned annotation ID must be non-zero")
	}
	if refIDs != nil && len(refIDs) != len(b.refs) {
		return nil, fmt.Errorf("core: %d pinned referent IDs for %d referents",
			len(refIDs), len(b.refs))
	}
	top := annID
	for _, id := range refIDs {
		top = max(top, id)
	}
	if top > MaxID {
		return nil, fmt.Errorf("core: pinned ID %d exceeds MaxID (%d)", top, uint64(MaxID))
	}
	return x.commit(b, annID, refIDs)
}

// newReferent is a mark an op is about to store, with its canonical key.
type newReferent struct {
	ref *Referent
	key string
}

func (x *Tx) commit(b *Builder, pinnedAnn uint64, pinnedRefs []uint64) (*Annotation, error) {
	start := time.Now()
	s := x.s
	if b.store != nil && b.store != s {
		return nil, fmt.Errorf("core: builder belongs to a different store")
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("core: invalid annotation: %v", b.errs[0])
	}
	if err := b.dc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(b.refs) == 0 && len(b.terms) == 0 {
		return nil, ErrEmptyAnnotation
	}

	// The "commit" span covers the op's share of the writer critical
	// section; time spent queueing for the writer mutex shows up as the
	// gap between this span's start and its parent's.
	csp := b.span.StartChild("commit")
	defer csp.Finish()
	x.open()
	nv := x.nv

	// Validate ontology references before mutating anything.
	for _, tr := range b.terms {
		o, ok := nv.ontologies[tr.Ontology]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchOntology, tr.Ontology)
		}
		if _, ok := o.Term(tr.TermID); !ok {
			return nil, fmt.Errorf("%w: %s in %s", ErrNoSuchTerm, tr.TermID, tr.Ontology)
		}
	}
	// Validate pre-committed referents.
	for _, r := range b.refs {
		if r.ID != 0 && x.refs.Get(r.ID) == nil {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchReferent, r.ID)
		}
	}

	nextAnn := nv.nextAnn
	var annID uint64
	switch {
	case pinnedAnn != 0:
		if x.anns.Get(pinnedAnn) != nil {
			return nil, fmt.Errorf("core: pinned annotation ID %d already committed", pinnedAnn)
		}
		annID = pinnedAnn
		if annID > nextAnn {
			nextAnn = annID
		}
	case s.ids != nil:
		// Shared allocator: IDs are globally unique and monotone across
		// shards, so within this shard annID always exceeds the counter.
		annID = s.ids.AllocAnnotationID()
		if annID > nextAnn {
			nextAnn = annID
		}
	default:
		nextAnn++
		annID = nextAnn
	}

	// Resolve referents against the session's state plus this op's own
	// pending marks: reuse identical marks, assign IDs to new ones.
	// Nothing is mutated yet — resolution errors leave the session exactly
	// as it was.
	nextRef := nv.nextRef
	refIDs := make([]uint64, 0, len(b.refs))
	resolved := make([]*Referent, 0, len(b.refs))
	var newRefs []newReferent // a handful at most: scanned, not indexed
	for i, r := range b.refs {
		var pin uint64
		if pinnedRefs != nil {
			pin = pinnedRefs[i]
		}
		if r.ID != 0 {
			stored := x.refs.Get(r.ID)
			resolved = append(resolved, stored)
			refIDs = append(refIDs, stored.ID)
			continue
		}
		key := markKey(r)
		if i := slices.IndexFunc(newRefs, func(n newReferent) bool { return n.key == key }); i >= 0 {
			p := newRefs[i].ref
			if pin != 0 && pin != p.ID {
				return nil, fmt.Errorf("core: pinned referent ID %d, but identical mark stored as %d", pin, p.ID)
			}
			resolved = append(resolved, p)
			refIDs = append(refIDs, p.ID)
			continue
		}
		if id, ok := x.rbm.Get(key); ok {
			if pin != 0 && pin != id {
				return nil, fmt.Errorf("core: pinned referent ID %d, but identical mark stored as %d", pin, id)
			}
			stored := x.refs.Get(id)
			resolved = append(resolved, stored)
			refIDs = append(refIDs, id)
			continue
		}
		stored := *r
		switch {
		case pin != 0:
			if x.refs.Get(pin) != nil || slices.ContainsFunc(newRefs, func(n newReferent) bool { return n.ref.ID == pin }) {
				return nil, fmt.Errorf("core: pinned referent ID %d already used by a different mark", pin)
			}
			stored.ID = pin
			if pin > nextRef {
				nextRef = pin
			}
		case s.ids != nil:
			stored.ID = s.ids.AllocReferentID()
			if stored.ID > nextRef {
				nextRef = stored.ID
			}
		default:
			nextRef++
			stored.ID = nextRef
		}
		newRefs = append(newRefs, newReferent{&stored, key})
		resolved = append(resolved, &stored)
		refIDs = append(refIDs, stored.ID)
	}

	// Build the successor spatial trees holding the new marks. This is the
	// op's last refusal (an invalid extent, an unregistered system); the
	// trees are stored below, with everything else.
	var its treeStage[intervalTree]
	var rts treeStage[regionTree]
	for _, n := range newRefs {
		if err := x.index(n.ref, &its, &rts); err != nil {
			return nil, err
		}
	}

	doc := buildContentDoc(annID, &b.dc, b.body, b.tags, resolved, b.terms)
	// The record header is copied out: a pointer into the builder would
	// keep all of it — the uncommitted marks, the tags, the request's span
	// tree — alive for as long as the annotation.
	dc := b.dc
	ann := &Annotation{
		ID:          annID,
		Content:     doc,
		DC:          &dc,
		ReferentIDs: refIDs,
		Terms:       append([]TermRef(nil), b.terms...),
	}

	// a-graph wiring, through the session's handle like every other write
	// of the op: referent -> object for new marks, then content ->
	// referent and content -> term.
	for _, n := range newRefs {
		x.g.AddEdge(agraph.Referent(n.ref.ID),
			agraph.Object(string(n.ref.ObjectType), n.ref.ObjectID), agraph.LabelMarks)
	}
	contentNode := agraph.ContentRoot(annID)
	x.g.AddNode(contentNode)
	for _, ref := range resolved {
		x.g.AddEdge(contentNode, agraph.Referent(ref.ID), agraph.LabelAnnotates)
	}
	for _, tr := range b.terms {
		x.g.AddEdge(contentNode, agraph.Term(tr.Ontology, tr.TermID), agraph.LabelRefersTo)
	}

	// Apply to the successor view under construction.
	x.anns.Set(annID, ann)
	nv.nextAnn, nv.nextRef = nextAnn, nextRef
	for _, n := range newRefs {
		x.refs.Set(n.ref.ID, n.ref)
		x.rbm.Set(n.key, n.ref.ID)
	}
	its.store(&x.it)
	rts.store(&x.rt)
	// Keyword index over the content document (ablation A6). IDs ascend
	// across the writer chain, so the usual insert is a tail append.
	for _, word := range doc.Keywords() {
		ids, known := x.kw.Get(word)
		if !known {
			// The index keeps a key as long as any annotation has the
			// word; it must not keep this document's text with it.
			word = strings.Clone(word)
		}
		x.kw.Set(word, ids.With(annID))
	}
	x.ops++
	x.propagate(ann, false, csp)
	csp.SetAttrInt("ann", int64(annID))
	csp.SetAttrInt("referents", int64(len(refIDs)))
	s.m.commits.Inc()
	s.m.commitSeconds.Observe(time.Since(start).Seconds())
	return ann, nil
}

// propagatorDelta runs the propagation delta under a "prop.delta" child
// of parent, routing through the propagator's per-rule attribution hook
// when it implements TracedPropagator.
func propagatorDelta(p Propagator, pre, post *View, ann *Annotation,
	deleted bool, parent *trace.Span) map[uint64][]DerivedFact {
	dsp := parent.StartChild("prop.delta")
	defer dsp.Finish()
	if tp, ok := p.(TracedPropagator); ok {
		return tp.DeltaTraced(pre, post, ann, deleted, dsp)
	}
	return p.Delta(pre, post, ann, deleted)
}

// buildContentDoc writes the annotation's content document. It knows what
// it is about to write, so the document's two slabs are allocated once at
// their final size, and the decimal attribute values (the annotation's id,
// each referent's id, lo and hi) are formatted into one buffer and cut
// from its string.
func buildContentDoc(annID uint64, dc *dublincore.Record, body string,
	tags []tagPair, refs []*Referent, terms []TermRef) *xmldoc.Document {
	nodes, attrs := 2+2*dc.Len(), 1+2*len(terms)
	if body != "" {
		nodes += 2
	}
	if len(tags) > 0 {
		nodes += 1 + 2*len(tags)
	}
	if len(refs) > 0 {
		nodes += 1 + len(refs)
	}
	if len(terms) > 0 {
		nodes += 1 + len(terms)
	}
	var digits [96]byte
	dec := strconv.AppendUint(digits[:0], annID, 10)
	for _, r := range refs {
		dec = strconv.AppendUint(append(dec, ' '), r.ID, 10)
		attrs += 6 // id, kind, type, object, domain; region or keys
		if r.Kind == IntervalReferent || r.Kind == BlockReferent {
			dec = strconv.AppendInt(append(dec, ' '), r.Interval.Lo, 10)
			dec = strconv.AppendInt(append(dec, ' '), r.Interval.Hi, 10)
			attrs++ // lo, hi in place of the sixth
		}
		if r.Kind == BlockReferent {
			attrs++ // rows
		}
	}
	decimals := string(dec)
	nextDecimal := func() (d string) {
		d, decimals, _ = strings.Cut(decimals, " ")
		return d
	}

	doc := xmldoc.NewDocumentCap("annotation", nodes, attrs)
	doc.Root.SetAttr("id", nextDecimal())
	meta := doc.AddElement(doc.Root, "meta")
	dc.AppendXML(doc, meta)
	if body != "" {
		doc.AddElementText(doc.Root, "body", body)
	}
	if len(tags) > 0 {
		tagEl := doc.AddElement(doc.Root, "tags")
		for _, t := range tags {
			doc.AddElementText(tagEl, t.name, t.value)
		}
	}
	if len(refs) > 0 {
		refsEl := doc.AddElement(doc.Root, "referents")
		for _, r := range refs {
			el := doc.AddElement(refsEl, "referent")
			el.SetAttr("id", nextDecimal())
			el.SetAttr("kind", r.Kind.String())
			el.SetAttr("type", string(r.ObjectType))
			el.SetAttr("object", r.ObjectID)
			el.SetAttr("domain", r.Domain)
			switch r.Kind {
			case IntervalReferent:
				el.SetAttr("lo", nextDecimal())
				el.SetAttr("hi", nextDecimal())
			case RegionReferent:
				el.SetAttr("region", r.Region.String())
			case BlockReferent:
				el.SetAttr("lo", nextDecimal())
				el.SetAttr("hi", nextDecimal())
				el.SetAttr("rows", joinKeys(r.Keys))
			default:
				el.SetAttr("keys", joinKeys(r.Keys))
			}
		}
	}
	if len(terms) > 0 {
		refsEl := doc.AddElement(doc.Root, "ontologyRefs")
		for _, tr := range terms {
			el := doc.AddElement(refsEl, "ref")
			el.SetAttr("ontology", tr.Ontology)
			el.SetAttr("term", tr.TermID)
		}
	}
	return doc
}

// joinKeys renders a key set the way the content document carries it:
// sorted, comma-separated.
func joinKeys(keys []string) string {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	return strings.Join(sorted, ",")
}

// Annotation returns a committed annotation by ID.
func (s *Store) Annotation(id uint64) (*Annotation, error) {
	return s.View().Annotation(id)
}

// Referent returns a committed referent by ID.
func (s *Store) Referent(id uint64) (*Referent, error) {
	return s.View().Referent(id)
}

// Referents returns all committed referents, sorted by ID.
func (s *Store) Referents() []*Referent { return s.View().Referents() }

// ObjectHandle identifies a registered data object.
type ObjectHandle struct {
	Type ObjectType
	ID   string
}

// ObjectList returns every registered data object (sequences, alignments,
// trees, interaction graphs, images, record rows), sorted by (type, id).
func (s *Store) ObjectList() []ObjectHandle { return s.View().ObjectList() }

// Annotations returns all committed annotations, sorted by ID.
func (s *Store) Annotations() []*Annotation { return s.View().Annotations() }

// AnnotationIDs returns the IDs of all committed annotations, sorted.
func (s *Store) AnnotationIDs() []uint64 { return s.View().AnnotationIDs() }
