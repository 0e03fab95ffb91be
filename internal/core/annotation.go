package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/cow"
	"graphitti/internal/dublincore"
	"graphitti/internal/trace"
	"graphitti/internal/xmldoc"
)

// Annotation is the linker object of the Graphitti model: it connects an
// XML content document to referents and ontology terms. Instances are
// immutable once committed, and hold the annotation and nothing else: a
// serving layer renders one from these fields on every read and keeps
// nothing on it. The document holds the one copy of everything the
// annotation says; its Dublin Core values, referents and ontology
// references are read from it (DC, ReferentIDs, Terms).
type Annotation struct {
	ID uint64
	// Content is the annotation's XML document (Dublin Core elements,
	// body, user-defined tags, referent and ontology-reference stanzas).
	Content *xmldoc.Document
	// DC reads the Dublin Core values in Content's <meta> element.
	DC dublincore.Meta
}

// ReferenceSlots returns where a content document of d's shape keeps its
// referents and ontology references: the value slot of each <referent>'s
// decimal id, and of each <ref>'s ontology and term, among d.Root.Slots(),
// in builder order. It reads d's shape alone, so a reader of many
// documents derives it once per shape (xmldoc.ShapeMemo), as ReferentIDs
// and Terms do.
func ReferenceSlots(d *xmldoc.Document) (refs []int32, terms [][2]int32) {
	attr := func(el xmldoc.Node, name string) int32 {
		for k := range el.NumAttrs() {
			if el.AttrAt(k).Name == name {
				return int32(el.AttrNode(k).Slot())
			}
		}
		panic("core: a content document's <" + el.Name() + "> has no " + name)
	}
	if rs := d.Root.FirstChildElement("referents"); rs.Valid() {
		for el := rs.FirstChild(); el.Valid(); el = el.NextSibling() {
			refs = append(refs, attr(el, "id"))
		}
	}
	if ts := d.Root.FirstChildElement("ontologyRefs"); ts.Valid() {
		for el := ts.FirstChild(); el.Valid(); el = el.NextSibling() {
			terms = append(terms, [2]int32{attr(el, "ontology"), attr(el, "term")})
		}
	}
	return refs, terms
}

type refSlots struct {
	refs  []int32
	terms [][2]int32
	// words are the slots of what the annotator wrote: the values of every
	// element under the root but <referents> (<meta>, <body>, <tags>,
	// <ontologyRefs>), not the root's id or the stanza the store prints;
	// buildContentDoc writes no comment. A keyword is a token
	// (xmldoc.AppendTokens) of these slots; nothing else defines one.
	words []int32
}

// contentSlots keeps ReferenceSlots and the keyword slots on each shape.
var contentSlots = xmldoc.NewShapeMemo(func(d *xmldoc.Document) *refSlots {
	refs, terms := ReferenceSlots(d)
	var words []int32
	for el := d.Root.FirstChild(); el.Valid(); el = el.NextSibling() {
		if el.Name() == "referents" {
			continue
		}
		for k := range el.Slots().Len() {
			words = append(words, int32(el.Slot()+k))
		}
	}
	return &refSlots{refs, terms, words}
})

// keywords returns the annotation's keywords, distinct and sorted: what the
// keyword index holds. They are gathered in a stack buffer and only the
// distinct ones copied out; a token may share memory with the document.
func (a *Annotation) keywords() []string {
	var buf [64]string
	words, vals := buf[:0], a.Content.Root.Slots()
	for _, s := range contentSlots.Get(a.Content).words {
		words = xmldoc.AppendTokens(words, vals.At(int(s)))
	}
	slices.Sort(words)
	return slices.Clone(slices.Compact(words))
}

// HasToken reports whether token, a word as NormalizeKeyword returns it,
// is a keyword of the annotation; it allocates nothing. The query's
// contains and a rule's keyword trigger match through it, each with its
// word normalized once: when the query is parsed, when the rule set is
// built.
func (a *Annotation) HasToken(token string) bool {
	vals := a.Content.Root.Slots()
	for _, s := range contentSlots.Get(a.Content).words {
		if xmldoc.HasToken(vals.At(int(s)), token) {
			return true
		}
	}
	return false
}

// ReferentIDs visits the IDs of the annotation's committed referents, in
// builder order, until yield returns false.
func (a *Annotation) ReferentIDs(yield func(uint64) bool) {
	vals := a.Content.Root.Slots()
	for _, s := range contentSlots.Get(a.Content).refs {
		id, _ := strconv.ParseUint(vals.At(int(s)), 10, 64)
		if !yield(id) {
			return
		}
	}
}

// NumReferents returns how many referents ReferentIDs visits.
func (a *Annotation) NumReferents() int { return len(contentSlots.Get(a.Content).refs) }

// Terms visits the annotation's ontology references, in builder order,
// until yield returns false. Their strings are read in place.
func (a *Annotation) Terms(yield func(TermRef) bool) {
	vals := a.Content.Root.Slots()
	for _, s := range contentSlots.Get(a.Content).terms {
		if !yield(TermRef{Ontology: vals.At(int(s[0])), TermID: vals.At(int(s[1]))}) {
			return
		}
	}
}

// term returns the ontology reference Terms visits k-th (from 0).
func (a *Annotation) term(k int) TermRef {
	s := contentSlots.Get(a.Content).terms[k]
	vals := a.Content.Root.Slots()
	return TermRef{Ontology: vals.At(int(s[0])), TermID: vals.At(int(s[1]))}
}

// NumTerms returns how many ontology references Terms visits.
func (a *Annotation) NumTerms() int { return len(contentSlots.Get(a.Content).terms) }

// Builder assembles an annotation prior to Commit. Builders are not safe
// for concurrent use; each goroutine should use its own. What its
// accessors return is shared with it; callers must not mutate it.
type Builder struct {
	store *Store
	dc    dublincore.Record
	body  string
	tags  []Tag
	refs  []*Referent
	terms []TermRef
	errs  []error
	span  *trace.Span
}

// Tag is one user-defined element of an annotation's content.
type Tag struct {
	Name, Value string
}

// NewAnnotation starts an annotation builder.
func (s *Store) NewAnnotation() *Builder {
	return &Builder{store: s}
}

// NewBuilder starts a store-free annotation builder: any store can commit
// it, and it outlives whichever store its marks were read from.
func NewBuilder() *Builder { return &Builder{} }

// WithSpan attaches a trace span to the builder: commit-path layers
// (router, writer, commit, WAL) hang their child spans off it — the op a
// live commit becomes (persist.CommitOp) carries it across them, so no
// layer grows a context parameter. Nil clears it.
func (b *Builder) WithSpan(sp *trace.Span) *Builder {
	b.span = sp
	return b
}

// Span returns the span attached with WithSpan, or nil.
func (b *Builder) Span() *trace.Span { return b.span }

// Err returns the first error a setter recorded, worded as commit refuses
// the builder with it; nil when there is none.
func (b *Builder) Err() error {
	if len(b.errs) == 0 {
		return nil
	}
	return fmt.Errorf("core: invalid annotation: %v", b.errs[0])
}

// DC returns the Dublin Core record.
func (b *Builder) DC() *dublincore.Record { return &b.dc }

// BodyText returns the free-text comment set with Body.
func (b *Builder) BodyText() string { return b.body }

// Tags returns the user-defined tags, in builder order.
func (b *Builder) Tags() []Tag { return b.tags }

// Referents returns the referents attached so far, in builder order.
func (b *Builder) Referents() []*Referent { return b.refs }

// TermRefs returns the ontology references, in builder order.
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
	b.recordErr(b.dc.Set(dublincore.Title, title))
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
	b.tags = append(b.tags, Tag{name, value})
	return b
}

// Refer attaches a referent produced by one of the Mark* constructors (or
// an already-committed referent as a view returns it, enabling shared
// referents).
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
	var ann *Annotation
	err := s.Batch(func(x *Tx) (err error) {
		ann, err = x.Commit(b)
		return err
	})
	return ann, err
}

// Commit is Store.Commit as one op of the session.
func (x *Tx) Commit(b *Builder) (*Annotation, error) {
	return x.commit(b, 0, nil)
}

// CommitWithIDs is Commit with a pinned annotation ID and pinned referent
// IDs (one per builder referent; 0 leaves a referent unpinned), as one op
// of the session. Replaying a dump (persist.ApplyAnnotation) uses it, so a
// recovered store assigns exactly the IDs the original store assigned,
// even when deletions left gaps in the sequence. Pinned IDs may not
// exceed MaxID or collide with existing objects, and a pinned referent
// that dedups into an existing shared mark must carry that mark's ID.
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
	if err := b.Err(); err != nil {
		return nil, err
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
	nv := x.open()

	// Validate ontology references before mutating anything.
	for _, tr := range b.terms {
		o, err := nv.Ontology(tr.Ontology)
		if err != nil {
			return nil, err
		}
		if _, ok := o.Term(tr.TermID); !ok {
			return nil, fmt.Errorf("%w: %s in %s", ErrNoSuchTerm, tr.TermID, tr.Ontology)
		}
	}
	// Validate pre-committed referents: the mark, not only the ID, since a
	// live commit logs the mark as the caller holds it and replay finds it
	// by its key.
	for _, r := range b.refs {
		if r.ID == 0 {
			continue
		}
		if stored := x.refs.Get(r.ID); stored == nil {
			return nil, fmt.Errorf("%w: %d", ErrNoSuchReferent, r.ID)
		} else if markKey(r) != markKey(stored) {
			return nil, fmt.Errorf("%w: referent %d is not the committed mark %s", ErrBadMark, r.ID, stored)
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
			continue
		}
		key := markKey(r)
		if i := slices.IndexFunc(newRefs, func(n newReferent) bool { return n.key == key }); i >= 0 {
			p := newRefs[i].ref
			if pin != 0 && pin != p.ID {
				return nil, fmt.Errorf("core: pinned referent ID %d, but identical mark stored as %d", pin, p.ID)
			}
			resolved = append(resolved, p)
			continue
		}
		if id, ok := x.rbm.Get(key); ok {
			if pin != 0 && pin != id {
				return nil, fmt.Errorf("core: pinned referent ID %d, but identical mark stored as %d", pin, id)
			}
			stored := x.refs.Get(id)
			resolved = append(resolved, stored)
			continue
		}
		stored := *r
		if r.Region != nil {
			region := *r.Region
			stored.Region = &region
		}
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

	// Nothing of the builder is kept: a pointer into it would keep all of it
	// — the uncommitted marks, the tags, the request's span tree — alive for
	// as long as the annotation, and a later setter call would rewrite a
	// published annotation.
	doc := buildContentDoc(annID, b, resolved)
	ann := &Annotation{ID: annID, Content: doc, DC: dublincore.MetaOf(doc)}

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
	// Keyword index over what the annotator wrote. IDs ascend across the
	// writer chain, so the usual insert is a tail append.
	with := func(ids cow.Postings, _ bool) cow.Postings { return ids.With(annID) }
	for _, word := range ann.keywords() {
		x.kw.Update(word, with)
	}
	x.ops++
	x.propagate(ann, false, csp)
	csp.SetAttrInt("ann", int64(annID))
	csp.SetAttrInt("referents", int64(len(resolved)))
	s.m.commitSeconds.Observe(time.Since(start).Seconds())
	return ann, nil
}

// buildContentDoc writes the content document of b's annotation, with the
// resolved referents refs, and seals it: a document whose shape is already
// interned keeps only a header and its values. The decimal attribute
// values (the annotation's id, each referent's id, lo and hi) are
// formatted into one buffer and cut from its string.
func buildContentDoc(annID uint64, b *Builder, refs []*Referent) *xmldoc.Document {
	var digits [96]byte
	dec := strconv.AppendUint(digits[:0], annID, 10)
	for _, r := range refs {
		dec = strconv.AppendUint(append(dec, ' '), r.ID, 10)
		if r.Kind == IntervalReferent || r.Kind == BlockReferent {
			dec = strconv.AppendInt(append(dec, ' '), r.Interval.Lo, 10)
			dec = strconv.AppendInt(append(dec, ' '), r.Interval.Hi, 10)
		}
	}
	decimals := string(dec)
	nextDecimal := func() (d string) {
		d, decimals, _ = strings.Cut(decimals, " ")
		return d
	}

	doc := xmldoc.NewDocument("annotation")
	doc.Root.SetAttr("id", nextDecimal())
	meta := doc.AddElement(doc.Root, "meta")
	b.dc.AppendXML(doc, meta)
	if b.body != "" {
		doc.AddElementText(doc.Root, "body", b.body)
	}
	if len(b.tags) > 0 {
		tagEl := doc.AddElement(doc.Root, "tags")
		for _, t := range b.tags {
			doc.AddElementText(tagEl, t.Name, t.Value)
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
	if len(b.terms) > 0 {
		refsEl := doc.AddElement(doc.Root, "ontologyRefs")
		for _, tr := range b.terms {
			el := doc.AddElement(refsEl, "ref")
			el.SetAttr("ontology", tr.Ontology)
			el.SetAttr("term", tr.TermID)
		}
	}
	doc.Seal()
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

// ObjectHandle identifies a registered data object.
type ObjectHandle struct {
	Type ObjectType
	ID   string
}

// Annotations returns all committed annotations, sorted by ID.
func (s *Store) Annotations() []*Annotation { return s.View().Annotations() }
