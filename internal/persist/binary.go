package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"

	"graphitti/internal/core"
	"graphitti/internal/deflate"
	"graphitti/internal/dublincore"
	"graphitti/internal/prop"
	"graphitti/internal/xmldoc"
)

// The binary form is what a data directory holds and GET /api/snapshot
// serves: an op in a WAL record (AppendOp, DecodeOp) and a checkpoint
// (WriteCheckpoint writes one from a pinned view set; ReadOps reads it as
// a stream of ops). JSON stays where a person reads the snapshot (Write,
// and graphitti -save, which turns a checkpoint into it).
//
// A checkpoint is the magic GSNAP, a format byte, a body, and a CRC32C of
// every byte before it. The body is the snapshot's version, its sections
// (each a count and its entries, in load order), the rules and the two ID
// counters. Format 2, the one written, holds the body as one raw DEFLATE
// stream; format 1, which earlier builds wrote, holds it in the clear and
// is still read. The checksum covers the bytes on disk: a reader sums
// them as they pass and checks the trailer once the body has ended, so a
// damaged file fails its load before the loader returns, and nothing it
// fed is installed.
//
// Every dump type has one hand-written append/read pair below (an
// annotation is appended from a dump or straight from a view, through one
// layout), and the order of the fields in a pair is the record format: a
// change to it is a new format (a new record format byte in
// internal/durable, a new checkpoint format byte), never an edit.
// Unsigned integers are uvarints, signed ones zigzag varints, strings and
// slices a uvarint length and then their bytes or elements, a float64 8
// little-endian bytes, a bool one byte. A referent's rect is written only
// for a region mark, the one kind whose rect applies. Two code tables
// intern the strings records repeat most: the Dublin Core element names
// and the object types. Code 0 escapes to a literal string, so a value
// outside a table still encodes.
//
// The decoder takes nothing on trust: no allocation is sized from a count
// or a length it has not read the bytes for. A WAL record is decoded
// whole, and every count and length in it is checked against the bytes
// left before anything is allocated — an element takes at least one byte —
// so what a record can make it allocate is linear in the record's length.
// A checkpoint is decoded entry by entry as its bytes arrive: a slice
// starts no larger than the bytes in hand can fill and grows as its
// elements are read, a string longer than the decoder's buffer is copied
// out as its bytes come in, so a count or length the input does not back
// runs out of input — or, inflating, into the cap ReadOps was given —
// before it runs up memory. Empty slices and maps decode as nil, as they
// do from the JSON form, which omits them.

// dcElements and objectTypes are the code tables: a value's code is its
// position plus one. Append only (and dcByName with dcElements).
var (
	dcElements = []string{"title", "creator", "subject", "description", "publisher",
		"contributor", "date", "type", "format", "identifier", "source", "language",
		"relation", "coverage", "rights"}
	objectTypes = []string{"dna_sequences", "rna_sequences", "protein_sequences",
		"alignments", "phylo_trees", "interaction_graphs", "images", "records"}
)

// checkpointMagic opens a binary checkpoint; no JSON document starts with
// it. The byte after it is the checkpoint format: checkpointPlain or
// checkpointDeflate, the one WriteCheckpoint writes.
const (
	checkpointMagic   = "GSNAP"
	checkpointPlain   = 1
	checkpointDeflate = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInflateLimit refuses a checkpoint whose body inflates past the cap
// ReadOps was given.
var ErrInflateLimit = errors.New("persist: checkpoint inflates past the limit")

// AppendOp appends the binary form of op to b: its kind, then the kind's
// dump. Only an op that applied is logged, and it has its dump; one
// without encodes as if its dump were empty.
func AppendOp(b []byte, op Op) []byte {
	b = append(b, byte(op.Kind))
	switch op.Kind {
	case core.OpRegisterOntology:
		return appendOntology(b, orZero(op.Ontology))
	case core.OpRegisterSystem:
		return appendSystem(b, orZero(op.System))
	case core.OpRegisterSequence:
		return appendSequence(b, orZero(op.Sequence))
	case core.OpRegisterAlignment:
		return appendAlignment(b, orZero(op.Alignment))
	case core.OpRegisterTree:
		return appendTree(b, orZero(op.Tree))
	case core.OpRegisterInteractionGraph:
		return appendGraph(b, orZero(op.Graph))
	case core.OpRegisterImage:
		return appendImage(b, orZero(op.Image))
	case core.OpCreateRecordTable:
		return appendTable(b, orZero(op.Table))
	case core.OpInsertRecord:
		return appendSlice(appendString(b, op.RecTable), op.Row, appendValue)
	case core.OpCommitAnnotation:
		return appendAnnotation(b, orZero(op.Annotation))
	case core.OpDeleteAnnotation:
		return binary.AppendUvarint(b, op.DeleteID)
	case core.OpAddRule:
		return appendRule(b, orZero(op.Rule))
	case core.OpDeleteRule:
		return appendString(b, op.RuleID)
	}
	return b
}

// DecodeOp reads one op from its binary form, which must be all of b.
func DecodeOp(b []byte) (Op, error) {
	d := decoder{b: b}
	op := d.op(core.OpKind(d.u8()))
	if err := d.end("op"); err != nil {
		return Op{}, err
	}
	return op, nil
}

// op reads the dump of an op of kind: what follows the kind byte in a WAL
// record, and an entry of a checkpoint's section.
func (d *decoder) op(kind core.OpKind) Op {
	op := Op{Kind: kind}
	switch kind {
	case core.OpRegisterOntology:
		op.Ontology = ptr(d.ontology())
	case core.OpRegisterSystem:
		op.System = ptr(d.system())
	case core.OpRegisterSequence:
		op.Sequence = ptr(d.sequence())
	case core.OpRegisterAlignment:
		op.Alignment = ptr(d.alignment())
	case core.OpRegisterTree:
		op.Tree = ptr(d.tree())
	case core.OpRegisterInteractionGraph:
		op.Graph = ptr(d.graph())
	case core.OpRegisterImage:
		op.Image = ptr(d.image())
	case core.OpCreateRecordTable:
		op.Table = ptr(d.table())
	case core.OpInsertRecord:
		op.RecTable = d.str()
		op.Row = readSlice(d, (*decoder).value)
	case core.OpCommitAnnotation:
		op.Annotation = ptr(d.annotation())
	case core.OpDeleteAnnotation:
		op.DeleteID = d.uvarint()
	case core.OpAddRule:
		op.Rule = ptr(d.rule())
	case core.OpDeleteRule:
		op.RuleID = d.str()
	default:
		d.fail("unknown op kind %d", kind)
	}
	return op
}

// WriteCheckpoint writes a pinned view set as a format-2 binary
// checkpoint: the magic and format byte, the body deflated by the
// program's one DEFLATE encoder (a deflate.Writer, which matches as
// compress/flate level 5 does), and a CRC32C of everything before it.
// views is a store's one view, or a deployment's views, one per shard. The checkpoint decodes to the
// snapshot Export takes of the store those views together hold: every
// section in its primary key's order, the ontologies and rules (broadcast
// to every shard) once, read from the first view, and the ID
// counters the highest of any view. Views whose rule sets differ are
// refused before the first byte (prop.ErrSplitRules): no one rule set is
// the one their derived facts were computed under. Over one view its bytes are the ones
// a compaction writes. No snapshot is built: the annotations, the one
// section that grows with the store, are encoded straight from their
// views, merged by ID, one at a time into a buffered writer in front of
// the encoder, so neither the file nor a dump of the store is ever held
// whole in memory, and what a checkpoint allocates does not grow with
// the number of annotations. Each checkpoint makes its own encoder,
// about 300 KiB, and drops it when it returns: nothing is kept between
// checkpoints.
func WriteCheckpoint(views []*core.View, w io.Writer) error {
	head, err := exportHead(views)
	if err != nil {
		return err
	}
	crc := crc32.New(castagnoli)
	out := bufio.NewWriter(io.MultiWriter(w, crc))
	out.WriteString(checkpointMagic)
	out.WriteByte(checkpointDeflate)
	zw := deflate.NewWriter(out)
	bw := bufio.NewWriter(zw)
	buf := appendInt(make([]byte, 0, 1024), int64(head.Version))
	bw.Write(buf)
	buf = writeSection(bw, buf, head.Ontologies, appendOntology)
	buf = writeSection(bw, buf, head.Systems, appendSystem)
	buf = writeSection(bw, buf, head.Sequences, appendSequence)
	buf = writeSection(bw, buf, head.Alignments, appendAlignment)
	buf = writeSection(bw, buf, head.Trees, appendTree)
	buf = writeSection(bw, buf, head.Graphs, appendGraph)
	buf = writeSection(bw, buf, head.Images, appendImage)
	buf = writeSection(bw, buf, head.RecordTables, appendTable)
	if buf, err = writeAnnotations(bw, buf, views); err != nil {
		return err
	}
	buf = writeSection(bw, buf, head.Rules, appendRule)
	bw.Write(binary.AppendUvarint(binary.AppendUvarint(buf[:0], head.NextAnn), head.NextRef))
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(buf[:0], crc.Sum32()))
	return err
}

// exportHead is every section of views but the annotations, and the ID
// counters. Each registered object is homed on one view, so a section
// over several is the views' sections together, sorted by primary key;
// the ontologies and rules are on every view and are read from the first,
// the rules once prop.SharedRules has found every view's set the same.
func exportHead(views []*core.View) (*Snapshot, error) {
	rules, err := prop.SharedRules(views)
	if err != nil {
		return nil, err
	}
	head, err := exportObjects(views[0], rules)
	if err != nil || len(views) == 1 {
		return head, err
	}
	for _, v := range views[1:] {
		if err := exportRegistered(v, head); err != nil {
			return nil, err
		}
	}
	sortByKey(head.Systems, func(d SystemDump) string { return d.Name })
	sortByKey(head.Sequences, func(d SequenceDump) string { return d.ID })
	sortByKey(head.Alignments, func(d AlignmentDump) string { return d.ID })
	sortByKey(head.Trees, func(d TreeDump) string { return d.ID })
	sortByKey(head.Graphs, func(d GraphDump) string { return d.ID })
	sortByKey(head.Images, func(d ImageDump) string { return d.ID })
	sortByKey(head.RecordTables, func(d TableDump) string { return d.Name })
	return head, nil
}

func sortByKey[T any](s []T, key func(T) string) {
	slices.SortFunc(s, func(a, b T) int { return strings.Compare(key(a), key(b)) })
}

// writeSection writes a section's count and then each entry, encoded into
// buf (reused, and returned for the next section). bw keeps the first
// write error, its own or the compressor's, for Flush to report.
func writeSection[T any](bw *bufio.Writer, buf []byte, entries []T, app func([]byte, *T) []byte) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(len(entries)))
	bw.Write(buf)
	for i := range entries {
		buf = app(buf[:0], &entries[i])
		bw.Write(buf)
	}
	return buf
}

// writeAnnotations writes the annotation section of views: the count of
// them all, then each annotation in ascending ID order, as Export dumps
// them, encoded from the committed annotation itself in its own view.
func writeAnnotations(bw *bufio.Writer, buf []byte, views []*core.View) ([]byte, error) {
	n := 0
	for _, v := range views {
		n += v.Stats().Annotations
	}
	buf = binary.AppendUvarint(buf[:0], uint64(n))
	bw.Write(buf)
	rec := new(viewAnnotation)
	var err error
	for rec.v, rec.a = range annotationsByID(views) {
		if buf, err = appendAnnotationRecord(buf[:0], rec); err != nil {
			return buf, err
		}
		bw.Write(buf)
	}
	return buf, nil
}

// annotationsByID yields every annotation of views, with the view it is
// in, in ascending ID order. Each view's are in that order already and an
// ID is in one view only, so over several views it merges them: it pulls
// each view's walk in step and yields the smallest head (view counts are
// small, so a scan of the heads beats a heap).
func annotationsByID(views []*core.View) iter.Seq2[*core.View, *core.Annotation] {
	return func(yield func(*core.View, *core.Annotation) bool) {
		if len(views) == 1 {
			v := views[0]
			v.AnnotationsEach(func(a *core.Annotation) bool { return yield(v, a) })
			return
		}
		heads := make([]*core.Annotation, len(views))
		nexts := make([]func() (*core.Annotation, bool), len(views))
		for k, v := range views {
			next, stop := iter.Pull(iter.Seq[*core.Annotation](v.AnnotationsEach))
			defer stop()
			nexts[k] = next
			heads[k], _ = next()
		}
		for {
			best := -1
			for k, a := range heads {
				if a != nil && (best < 0 || a.ID < heads[best].ID) {
					best = k
				}
			}
			if best < 0 || !yield(views[best], heads[best]) {
				return
			}
			heads[best], _ = nexts[best]()
		}
	}
}

// The append/read pairs, one per dump type, fields in declaration order.

func appendOntology(b []byte, o *OntologyDump) []byte {
	b = appendSlice(appendString(b, o.Name), o.Terms, appendTerm)
	return appendSlice(b, o.Edges, appendEdge)
}

func (d *decoder) ontology() OntologyDump {
	return OntologyDump{Name: d.str(), Terms: readSlice(d, (*decoder).term), Edges: readSlice(d, (*decoder).edge)}
}

func appendTerm(b []byte, t *TermDump) []byte {
	b = appendString(appendString(appendString(b, t.ID), t.Name), t.Def)
	return appendStrings(b, t.Synonyms)
}

func (d *decoder) term() TermDump {
	return TermDump{ID: d.str(), Name: d.str(), Def: d.str(), Synonyms: d.strings()}
}

func appendEdge(b []byte, e *EdgeDump) []byte {
	return append(appendString(appendString(appendString(b, e.From), e.To), e.Rel), e.Quant)
}

func (d *decoder) edge() EdgeDump {
	return EdgeDump{From: d.str(), To: d.str(), Rel: d.str(), Quant: d.u8()}
}

func appendSystem(b []byte, s *SystemDump) []byte {
	return appendInt(appendRect(appendString(b, s.Name), &s.Bounds), int64(s.Dims))
}

func (d *decoder) system() SystemDump {
	return SystemDump{Name: d.str(), Bounds: d.rect(), Dims: d.int()}
}

func appendSequence(b []byte, s *SequenceDump) []byte {
	b = appendString(append(appendString(b, s.ID), s.Kind), s.Description)
	return appendString(appendInt(appendString(b, s.Domain), s.Offset), s.Residues)
}

func (d *decoder) sequence() SequenceDump {
	return SequenceDump{ID: d.str(), Kind: d.u8(), Description: d.str(), Domain: d.str(),
		Offset: d.varint(), Residues: d.str()}
}

func appendAlignment(b []byte, a *AlignmentDump) []byte {
	return appendStrings(appendStrings(appendString(b, a.ID), a.RowIDs), a.Rows)
}

func (d *decoder) alignment() AlignmentDump {
	return AlignmentDump{ID: d.str(), RowIDs: d.strings(), Rows: d.strings()}
}

func appendTree(b []byte, t *TreeDump) []byte {
	return appendString(appendString(b, t.ID), t.Newick)
}

func (d *decoder) tree() TreeDump {
	return TreeDump{ID: d.str(), Newick: d.str()}
}

func appendGraph(b []byte, g *GraphDump) []byte {
	b = appendSlice(appendString(b, g.ID), g.Molecules, appendMolecule)
	return appendSlice(b, g.Interactions, appendInteraction)
}

func (d *decoder) graph() GraphDump {
	return GraphDump{ID: d.str(), Molecules: readSlice(d, (*decoder).molecule),
		Interactions: readSlice(d, (*decoder).interaction)}
}

func appendMolecule(b []byte, m *MoleculeDump) []byte {
	return append(appendString(appendString(b, m.ID), m.Name), m.Type)
}

func (d *decoder) molecule() MoleculeDump {
	return MoleculeDump{ID: d.str(), Name: d.str(), Type: d.u8()}
}

func appendInteraction(b []byte, e *InteractionDump) []byte {
	return appendFloat(appendString(appendString(appendString(b, e.A), e.B), e.Kind), e.Score)
}

func (d *decoder) interaction() InteractionDump {
	return InteractionDump{A: d.str(), B: d.str(), Kind: d.str(), Score: d.f64()}
}

func appendImage(b []byte, im *ImageDump) []byte {
	b = appendString(appendString(appendString(appendString(b, im.ID), im.System), im.Modality), im.Subject)
	b = appendRect(appendInt(b, int64(im.Dims)), &im.Local)
	return appendVec(appendVec(b, &im.Scale), &im.Offset)
}

func (d *decoder) image() ImageDump {
	return ImageDump{ID: d.str(), System: d.str(), Modality: d.str(), Subject: d.str(),
		Dims: d.int(), Local: d.rect(), Scale: d.vec(), Offset: d.vec()}
}

func appendTable(b []byte, t *TableDump) []byte {
	b = appendSlice(appendString(appendString(b, t.Name), t.Key), t.Columns, appendColumn)
	return appendSlice(b, t.Rows, appendRow)
}

func (d *decoder) table() TableDump {
	return TableDump{Name: d.str(), Key: d.str(), Columns: readSlice(d, (*decoder).column),
		Rows: readSlice(d, (*decoder).row)}
}

func appendColumn(b []byte, c *ColumnDump) []byte {
	return appendBool(append(appendString(b, c.Name), c.Type), c.NotNull)
}

func (d *decoder) column() ColumnDump {
	return ColumnDump{Name: d.str(), Type: d.u8(), NotNull: d.bool()}
}

func appendRow(b []byte, r *[]ValueDump) []byte { return appendSlice(b, *r, appendValue) }

func (d *decoder) row() []ValueDump { return readSlice(d, (*decoder).value) }

// appendValue writes a cell's tag and then the one field the tag reads
// (RestoreValue ignores the rest); an unknown tag carries nothing else.
func appendValue(b []byte, v *ValueDump) []byte {
	b = appendString(b, v.T)
	switch v.T {
	case "i":
		return appendInt(b, v.I)
	case "f":
		return appendFloat(b, v.F)
	case "s":
		return appendString(b, v.S)
	case "b":
		return appendBool(b, v.B)
	case "bytes":
		return append(binary.AppendUvarint(b, uint64(len(v.Bytes))), v.Bytes...)
	}
	return b
}

func (d *decoder) value() ValueDump {
	v := ValueDump{T: d.str()}
	switch v.T {
	case "i":
		v.I = d.varint()
	case "f":
		v.F = d.f64()
	case "s":
		v.S = d.str()
	case "b":
		v.B = d.bool()
	case "bytes":
		if s := d.str(); s != "" {
			v.Bytes = []byte(s)
		}
	}
	return v
}

// An annotation record is written from one of two sources: a dump, which
// is what an op holds, or a committed annotation of a pinned view, which
// is what a checkpoint streams. appendAnnotationRecord is the record's one
// layout, and both sources write each field through the same helper
// (appendDCFields, appendString, appendTag, appendReferent, appendTermRef),
// so they write the same bytes for the same annotation.
type annotationSource interface {
	id() uint64
	appendDC(b []byte) []byte
	body() string
	appendTags(b []byte) []byte
	appendReferents(b []byte) ([]byte, error)
	appendTerms(b []byte) []byte
}

func appendAnnotationRecord(b []byte, a annotationSource) ([]byte, error) {
	b = appendString(a.appendDC(binary.AppendUvarint(b, a.id())), a.body())
	b, err := a.appendReferents(a.appendTags(b))
	return a.appendTerms(b), err
}

func appendAnnotation(b []byte, a *AnnotationDump) []byte {
	b, _ = appendAnnotationRecord(b, (*dumpAnnotation)(a)) // a dump's referents are already resolved
	return b
}

func (d *decoder) annotation() AnnotationDump {
	return AnnotationDump{ID: d.uvarint(), DC: d.dc(), Body: d.str(), Tags: readSlice(d, (*decoder).tag),
		Referents: readSlice(d, (*decoder).referent), Terms: readSlice(d, (*decoder).termRef)}
}

// dumpAnnotation is an annotation record's source in a dump.
type dumpAnnotation AnnotationDump

func (a *dumpAnnotation) id() uint64                  { return a.ID }
func (a *dumpAnnotation) appendDC(b []byte) []byte    { return appendDC(b, a.DC) }
func (a *dumpAnnotation) body() string                { return a.Body }
func (a *dumpAnnotation) appendTags(b []byte) []byte  { return appendSlice(b, a.Tags, appendTag) }
func (a *dumpAnnotation) appendTerms(b []byte) []byte { return appendSlice(b, a.Terms, appendTermRef) }

func (a *dumpAnnotation) appendReferents(b []byte) ([]byte, error) {
	return appendSlice(b, a.Referents, appendReferent), nil
}

// viewAnnotation is an annotation record's source in a pinned view: it
// reads each field off the committed annotation a, resolving its referents
// in v, and builds no dump, slice or map for it.
type viewAnnotation struct {
	v *core.View
	a *core.Annotation
}

func (r *viewAnnotation) id() uint64               { return r.a.ID }
func (r *viewAnnotation) appendDC(b []byte) []byte { return appendDCMeta(b, r.a.DC) }
func (r *viewAnnotation) body() string             { return bodyOf(r.a.Content) }

func (r *viewAnnotation) appendTags(b []byte) []byte {
	n := 0
	eachTag(r.a.Content, func(TagDump) { n++ })
	b = binary.AppendUvarint(b, uint64(n))
	eachTag(r.a.Content, func(t TagDump) { b = appendTag(b, &t) })
	return b
}

func (r *viewAnnotation) appendReferents(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(r.a.NumReferents()))
	for id := range r.a.ReferentIDs {
		ref, err := r.v.Referent(id)
		if err != nil {
			return b, err
		}
		rd := dumpReferent(ref)
		b = appendReferent(b, &rd)
	}
	return b, nil
}

func (r *viewAnnotation) appendTerms(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(r.a.NumTerms()))
	for tr := range r.a.Terms {
		b = appendTermRef(b, &TermRefDump{Ontology: tr.Ontology, Term: tr.TermID})
	}
	return b
}

// dcByName is the Dublin Core code table in name order, the order a
// record's elements are written in: each element's name and code
// (dcElements is the table in code order).
var dcByName = [...]dcCode{
	{"contributor", 6}, {"coverage", 14}, {"creator", 2}, {"date", 7}, {"description", 4},
	{"format", 9}, {"identifier", 10}, {"language", 12}, {"publisher", 5}, {"relation", 13},
	{"rights", 15}, {"source", 11}, {"subject", 3}, {"title", 1}, {"type", 8},
}

type dcCode struct {
	name string
	code uint64
}

// dcFields is a Dublin Core record laid out in dcByName: an element's
// values at its position there, and a bit for each element present.
// literal is set when an element is outside the table.
// A dump's values are a slice each, a committed annotation's a run of its
// document's value slots.
type dcFields[V []string | xmldoc.Slots] struct {
	vals    [len(dcByName)]V
	has     uint32
	literal bool
}

func (f *dcFields[V]) add(name string, vals V) {
	i, ok := slices.BinarySearchFunc(dcByName[:], name, func(e dcCode, name string) int {
		return strings.Compare(e.name, name)
	})
	if !ok {
		f.literal = true
		return
	}
	f.vals[i], f.has = vals, f.has|1<<i
}

// appendDCFields writes a Dublin Core record as its element count, then
// each element, in name order, as its code and its values.
func appendDCFields[V []string | xmldoc.Slots](b []byte, f *dcFields[V], appendVals func([]byte, V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(bits.OnesCount32(f.has)))
	for i := range dcByName {
		if f.has&(1<<i) != 0 {
			b = appendVals(binary.AppendUvarint(b, dcByName[i].code), f.vals[i])
		}
	}
	return b
}

// appendDC writes a dump's Dublin Core record. A name outside the code
// table, which only a decoded record can hold, is written as code 0 and the
// literal, in the same name order among the others.
func appendDC(b []byte, dc map[string][]string) []byte {
	var f dcFields[[]string]
	for e, vals := range dc {
		f.add(e, vals)
	}
	if !f.literal {
		return appendDCFields(b, &f, appendStrings)
	}
	b = binary.AppendUvarint(b, uint64(len(dc)))
	for _, e := range slices.Sorted(maps.Keys(dc)) {
		b = appendStrings(appendCoded(b, e, dcElements), dc[e])
	}
	return b
}

// appendDCMeta writes a committed annotation's Dublin Core record, read
// through the view of its document, as appendDC writes its dump's.
func appendDCMeta(b []byte, m dublincore.Meta) []byte {
	var f dcFields[xmldoc.Slots]
	for e, vals := range m.All {
		f.add(string(e), vals)
	}
	if f.literal { // a commit refuses an element outside the fifteen
		return appendDC(b, dumpMeta(m))
	}
	return appendDCFields(b, &f, appendSlots)
}

func (d *decoder) dc() map[string][]string {
	n := d.count()
	if n == 0 {
		return nil
	}
	dc := make(map[string][]string, min(n, len(d.b)))
	for i := 0; i < n && d.err == nil; i++ {
		e := d.coded(dcElements)
		if _, dup := dc[e]; dup {
			d.fail("Dublin Core element %q twice", e)
		}
		dc[e] = d.strings()
	}
	return dc
}

func appendTag(b []byte, t *TagDump) []byte {
	return appendString(appendString(b, t.Name), t.Value)
}

func (d *decoder) tag() TagDump {
	return TagDump{Name: d.str(), Value: d.str()}
}

func appendTermRef(b []byte, t *TermRefDump) []byte {
	return appendString(appendString(b, t.Ontology), t.Term)
}

func (d *decoder) termRef() TermRefDump {
	return TermRefDump{Ontology: d.str(), Term: d.str()}
}

func appendReferent(b []byte, r *ReferentDump) []byte {
	b = append(binary.AppendUvarint(b, r.ID), r.Kind)
	b = appendString(appendString(appendCoded(b, r.ObjectType, objectTypes), r.ObjectID), r.Domain)
	b = appendInt(appendInt(b, r.Lo), r.Hi)
	if core.ReferentKind(r.Kind) == core.RegionReferent {
		b = appendInt(appendRect(b, &r.Rect), int64(r.RectDims))
	}
	return appendStrings(b, r.Keys)
}

func (d *decoder) referent() ReferentDump {
	r := ReferentDump{ID: d.uvarint(), Kind: d.u8(), ObjectType: d.coded(objectTypes),
		ObjectID: d.str(), Domain: d.str(), Lo: d.varint(), Hi: d.varint()}
	if core.ReferentKind(r.Kind) == core.RegionReferent {
		r.Rect, r.RectDims = d.rect(), d.int()
	}
	r.Keys = d.strings()
	return r
}

func appendRule(b []byte, r *RuleDump) []byte {
	b = appendString(appendString(appendString(appendString(b, r.ID), r.Keyword), r.Ontology), r.Term)
	b = appendString(appendString(appendString(b, r.Domain), r.Kind), r.Edge)
	return appendStrings(b, r.Relations)
}

func (d *decoder) rule() RuleDump {
	return RuleDump{ID: d.str(), Keyword: d.str(), Ontology: d.str(), Term: d.str(),
		Domain: d.str(), Kind: d.str(), Edge: d.str(), Relations: d.strings()}
}

// The primitives.

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendSlots writes a run of a document's values as appendStrings writes
// the same values in a slice.
func appendSlots(b []byte, vals xmldoc.Slots) []byte {
	b = binary.AppendUvarint(b, uint64(vals.Len()))
	for v := range vals.All {
		b = appendString(b, v)
	}
	return b
}

func appendVec(b []byte, v *[3]float64) []byte {
	for _, f := range v {
		b = appendFloat(b, f)
	}
	return b
}

func appendRect(b []byte, r *[2][3]float64) []byte {
	return appendVec(appendVec(b, &r[0]), &r[1])
}

// appendCoded writes s as its code in table, or as code 0 and the literal.
func appendCoded(b []byte, s string, table []string) []byte {
	if i := slices.Index(table, s); i >= 0 {
		return binary.AppendUvarint(b, uint64(i+1))
	}
	return appendString(append(b, 0), s)
}

func appendSlice[T any](b []byte, s []T, app func([]byte, *T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for i := range s {
		b = app(b, &s[i])
	}
	return b
}

func orZero[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

func ptr[T any](v T) *T { return &v }

// decoder reads the binary form: a whole record in b, or, when src is
// set, a stream whose bytes it reads into buf as it needs them (b is then
// what of buf is not read yet). The first failure sticks: it empties the
// input, so every later read returns a zero value at once, and end
// reports it.
type decoder struct {
	b   []byte
	src io.Reader
	buf []byte
	err error
	// ioErr marks err as src's own: end reports it as it is.
	ioErr bool
}

// streamChunk is the size of a streaming decoder's buffer: the most it
// reads ahead of what it has decoded.
const streamChunk = 32 << 10

// streaming returns a decoder over the bytes src yields.
func streaming(src io.Reader) *decoder {
	return &decoder{src: src, buf: make([]byte, 0, streamChunk)}
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b, d.src = nil, nil
}

// fill reads from src, as far as its buffer holds, until n bytes are in
// hand or src ends, and reports whether n are. A whole record has none
// past b. Asked for more than the buffer holds, it fills the buffer and
// reports false.
func (d *decoder) fill(n int) bool {
	if d.src == nil {
		return false
	}
	k := copy(d.buf[:cap(d.buf)], d.b)
	d.buf = d.buf[:k]
	for len(d.buf) < n && len(d.buf) < cap(d.buf) {
		m, err := d.src.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		if err == io.EOF {
			d.src = nil
			break
		}
		if err != nil {
			if d.err == nil {
				d.err, d.ioErr = err, true
			}
			d.buf, d.src = d.buf[:0], nil
			break
		}
	}
	d.b = d.buf
	return len(d.b) >= n
}

// end is the decoder's verdict on a whole record of the named form: it
// must have failed nowhere, and nothing may follow what was read. An
// error of the stream it read is reported as it is.
func (d *decoder) end(form string) error {
	if d.err == nil {
		if n := d.rest(); n > 0 && d.err == nil {
			d.err = fmt.Errorf("%d bytes after the end", n)
		}
	}
	switch {
	case d.err == nil:
		return nil
	case d.ioErr:
		return d.err
	}
	return fmt.Errorf("persist: binary %s: %w", form, d.err)
}

// rest reads what is left of the input and counts it.
func (d *decoder) rest() int64 {
	n := int64(len(d.b))
	d.b = nil
	if d.src != nil {
		m, err := io.Copy(io.Discard, d.src)
		n += m
		if err != nil {
			d.err, d.ioErr = err, true
		}
		d.src = nil
	}
	return n
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 && !d.fill(1) {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool byte is neither 0 nor 1")
	return false
}

func (d *decoder) uvarint() uint64 {
	if len(d.b) < binary.MaxVarintLen64 {
		d.fill(binary.MaxVarintLen64)
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if len(d.b) < binary.MaxVarintLen64 {
		d.fill(binary.MaxVarintLen64)
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer %d out of range", v)
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	if len(d.b) < 8 && !d.fill(8) {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a length. In a whole record it refuses one larger than the
// input left: every element or byte it counts takes at least one byte. A
// stream's input left is not known; its readers size nothing from the
// count (readSlice, dc, long).
func (d *decoder) count() int {
	n := d.uvarint()
	if d.src == nil && n > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	if n > math.MaxInt32 {
		d.fail("count %d out of range", n)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	if n > len(d.b) && !d.fill(n) {
		return d.long(n)
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// long reads a string of n bytes, more than a stream's buffer holds or
// than its input has left, copying them out as they arrive: what it
// allocates grows with the bytes read, never with n.
func (d *decoder) long(n int) string {
	var s []byte
	for {
		k := min(n-len(s), len(d.b))
		s, d.b = append(s, d.b[:k]...), d.b[k:]
		if len(s) == n {
			return string(s)
		}
		if !d.fill(1) {
			d.fail("truncated")
			return ""
		}
	}
}

func (d *decoder) strings() []string { return readSlice(d, (*decoder).str) }

func (d *decoder) vec() (v [3]float64) {
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *decoder) rect() [2][3]float64 { return [2][3]float64{d.vec(), d.vec()} }

func (d *decoder) coded(table []string) string {
	c := d.uvarint()
	switch {
	case c == 0:
		return d.str()
	case c <= uint64(len(table)):
		return table[c-1]
	}
	d.fail("code %d outside a table of %d", c, len(table))
	return ""
}

// readSlice reads a count and then as many elements. The slice starts no
// larger than the bytes in hand can fill, an element taking at least one,
// and stops at the first failure.
func readSlice[T any](d *decoder, read func(*decoder) T) []T {
	n := d.count()
	if n == 0 || d.err != nil {
		return nil
	}
	s := make([]T, 0, min(n, len(d.b)))
	for len(s) < n && d.err == nil {
		s = append(s, read(d))
	}
	return s
}
