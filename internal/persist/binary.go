package persist

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"slices"

	"graphitti/internal/core"
)

// The binary form is what a data directory holds: an op in a WAL record
// (AppendOp, DecodeOp) and a checkpoint (WriteCheckpoint; Decode reads it).
// JSON stays the export and debug form.
//
// A checkpoint is the magic GSNAP, a format byte, a body, and a CRC32C of
// every byte before it. The body is the snapshot's version, its sections
// (each a count and its entries, in load order), the rules and the two ID
// counters. Format 2, the one written, holds the body as one raw DEFLATE
// stream; format 1, which earlier builds wrote, holds it in the clear and
// is still read. The checksum covers the bytes on disk, so a damaged file
// is refused before anything is inflated.
//
// Every dump type has one hand-written append/read pair below, and the
// order of the fields in a pair is the record format: a change to it is a
// new format (a new record format byte in internal/durable, a new
// checkpoint format byte), never an edit. Unsigned integers are uvarints,
// signed ones zigzag varints, strings and slices a uvarint length and then
// their bytes or elements, a float64 8 little-endian bytes, a bool one
// byte. A referent's rect is written only for a region mark, the one kind
// whose rect applies. Two code tables intern the strings records repeat
// most: the Dublin Core element names and the object types. Code 0
// escapes to a literal string, so a value outside a table still encodes.
//
// The decoder takes nothing on trust: every count and length is checked
// against the input left before anything is allocated — an element takes
// at least one byte — so what a record can make it allocate is linear in
// the record's length. Empty slices and maps decode as nil, as they do
// from the JSON form, which omits them.

// dcElements and objectTypes are the code tables: a value's code is its
// position plus one. Append only.
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
// DecodeLimited was given.
var ErrInflateLimit = errors.New("persist: checkpoint inflates past the limit")

// spareCompressor holds the compressor the last checkpoint used: making
// one allocates 1.2 MB, and a sync.Pool would drop it at the next GC, which
// comes long before the next compaction. A checkpoint that finds it taken
// makes its own.
var spareCompressor = make(chan *flate.Writer, 1)

func takeCompressor(w io.Writer) *flate.Writer {
	select {
	case zw := <-spareCompressor:
		zw.Reset(w)
		return zw
	default:
		zw, _ := flate.NewWriter(w, flate.BestSpeed) // fails only for an unknown level
		return zw
	}
}

func returnCompressor(zw *flate.Writer) {
	zw.Reset(io.Discard) // let go of the file
	select {
	case spareCompressor <- zw:
	default:
	}
}

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
	op := Op{Kind: core.OpKind(d.u8())}
	switch op.Kind {
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
		op.Row = readSlice(&d, (*decoder).value)
	case core.OpCommitAnnotation:
		op.Annotation = ptr(d.annotation())
	case core.OpDeleteAnnotation:
		op.DeleteID = d.uvarint()
	case core.OpAddRule:
		op.Rule = ptr(d.rule())
	case core.OpDeleteRule:
		op.RuleID = d.str()
	default:
		d.fail("unknown op kind %d", op.Kind)
	}
	if err := d.end("op"); err != nil {
		return Op{}, err
	}
	return op, nil
}

// WriteCheckpoint writes snap as a format-2 binary checkpoint: the magic
// and format byte, the body deflated (BestSpeed), and a CRC32C of
// everything before it. Entries are encoded one at a time into a buffered
// writer in front of the compressor, so the file is never held whole in
// memory, plain or compressed.
func WriteCheckpoint(snap *Snapshot, w io.Writer) error {
	crc := crc32.New(castagnoli)
	out := bufio.NewWriter(io.MultiWriter(w, crc))
	out.WriteString(checkpointMagic)
	out.WriteByte(checkpointDeflate)
	zw := takeCompressor(out)
	defer returnCompressor(zw)
	bw := bufio.NewWriter(zw)
	buf := appendInt(nil, int64(snap.Version))
	bw.Write(buf)
	buf = writeSection(bw, buf, snap.Ontologies, appendOntology)
	buf = writeSection(bw, buf, snap.Systems, appendSystem)
	buf = writeSection(bw, buf, snap.Sequences, appendSequence)
	buf = writeSection(bw, buf, snap.Alignments, appendAlignment)
	buf = writeSection(bw, buf, snap.Trees, appendTree)
	buf = writeSection(bw, buf, snap.Graphs, appendGraph)
	buf = writeSection(bw, buf, snap.Images, appendImage)
	buf = writeSection(bw, buf, snap.RecordTables, appendTable)
	buf = writeSection(bw, buf, snap.Annotations, appendAnnotation)
	buf = writeSection(bw, buf, snap.Rules, appendRule)
	bw.Write(binary.AppendUvarint(binary.AppendUvarint(buf[:0], snap.NextAnn), snap.NextRef))
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
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

// decodeCheckpoint reads a whole binary checkpoint, checksum first. A
// format-2 body is inflated, to at most limit bytes when limit is
// positive, and then read like a format-1 one.
func decodeCheckpoint(data []byte, limit int64) (*Snapshot, error) {
	head := len(checkpointMagic) + 1
	if len(data) < head+4 {
		return nil, fmt.Errorf("persist: checkpoint of %d bytes is truncated", len(data))
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("persist: checkpoint checksum %08x, want %08x: the file is truncated or corrupt", got, want)
	}
	switch v := body[head-1]; v {
	case checkpointPlain:
		body = body[head:]
	case checkpointDeflate:
		var err error
		if body, err = inflate(body[head:], limit); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("persist: checkpoint format %d, want %d or %d", v, checkpointPlain, checkpointDeflate)
	}
	d := decoder{b: body}
	snap := &Snapshot{Version: d.int()}
	snap.Ontologies = readSlice(&d, (*decoder).ontology)
	snap.Systems = readSlice(&d, (*decoder).system)
	snap.Sequences = readSlice(&d, (*decoder).sequence)
	snap.Alignments = readSlice(&d, (*decoder).alignment)
	snap.Trees = readSlice(&d, (*decoder).tree)
	snap.Graphs = readSlice(&d, (*decoder).graph)
	snap.Images = readSlice(&d, (*decoder).image)
	snap.RecordTables = readSlice(&d, (*decoder).table)
	snap.Annotations = readSlice(&d, (*decoder).annotation)
	snap.Rules = readSlice(&d, (*decoder).rule)
	snap.NextAnn, snap.NextRef = d.uvarint(), d.uvarint()
	if err := d.end("checkpoint"); err != nil {
		return nil, err
	}
	return snap, nil
}

// inflate reads the DEFLATE stream that must be all of z: one that ends
// early, fails to inflate or has bytes after its final block is refused,
// and so is one that inflates past limit bytes when limit is positive.
// The decompressor reads z through its ReadByte, so it reads no byte past
// the final block, and what it left is what follows the stream.
func inflate(z []byte, limit int64) ([]byte, error) {
	r := bytes.NewReader(z)
	var src io.Reader = flate.NewReader(r)
	if limit > 0 {
		src = io.LimitReader(src, limit+1)
	}
	body, err := io.ReadAll(src)
	switch {
	case limit > 0 && int64(len(body)) > limit:
		return nil, fmt.Errorf("%w of %d bytes", ErrInflateLimit, limit)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return nil, errors.New("persist: checkpoint's deflate stream ends early")
	case err != nil:
		return nil, fmt.Errorf("persist: checkpoint does not inflate: %w", err)
	case r.Len() > 0:
		return nil, fmt.Errorf("persist: checkpoint has %d bytes after its deflate stream", r.Len())
	}
	return body, nil
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

func appendAnnotation(b []byte, a *AnnotationDump) []byte {
	b = appendString(appendDC(binary.AppendUvarint(b, a.ID), a.DC), a.Body)
	b = appendSlice(appendSlice(b, a.Tags, appendTag), a.Referents, appendReferent)
	return appendSlice(b, a.Terms, appendTermRef)
}

func (d *decoder) annotation() AnnotationDump {
	return AnnotationDump{ID: d.uvarint(), DC: d.dc(), Body: d.str(), Tags: readSlice(d, (*decoder).tag),
		Referents: readSlice(d, (*decoder).referent), Terms: readSlice(d, (*decoder).termRef)}
}

// appendDC writes a Dublin Core record as its element count, then each
// element, in name order, as its code and its values.
func appendDC(b []byte, dc map[string][]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(dc)))
	for _, e := range slices.Sorted(maps.Keys(dc)) {
		b = appendStrings(appendCoded(b, e, dcElements), dc[e])
	}
	return b
}

func (d *decoder) dc() map[string][]string {
	n := d.count()
	if n == 0 {
		return nil
	}
	dc := make(map[string][]string, n)
	for range n {
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

// decoder reads the binary form. The first failure sticks: it empties the
// input, so every later read returns a zero value at once, and end
// reports it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// end is the decoder's verdict on a whole record of the named form.
func (d *decoder) end(form string) error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d bytes after the end", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("persist: binary %s: %w", form, d.err)
	}
	return nil
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
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
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
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
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a length and refuses one larger than the input left: every
// element or byte it counts takes at least one byte.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
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

func readSlice[T any](d *decoder, read func(*decoder) T) []T {
	n := d.count()
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = read(d)
	}
	return s
}
