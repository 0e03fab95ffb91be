// Package persist serialises a Graphitti store to a portable snapshot and
// rebuilds stores from snapshots. A snapshot has two forms: a compact
// binary checkpoint, DEFLATE-compressed, the form a data directory holds
// and GET /api/snapshot serves (WriteCheckpoint, which writes it straight
// from a pinned view set — a store's one view or a shard set's, merged —
// without building a Snapshot), and JSON, the form for a human reader
// (Write, graphitti -save). ReadOps reads either as a stream of ops (a
// Source), decoded as the bytes arrive; Decode collects one into a
// Snapshot for a reader that wants the dumps.
//
// The snapshot is a logical export — registered ontologies, coordinate
// systems, data objects, record tables and annotations — not a byte-level
// image. The loader (LoadWith) replays a Source's ops through the normal
// registration and commit pipeline one at a time, so every index
// (interval trees, R-trees, keyword index, a-graph) is rebuilt
// consistently, all invariants re-checked, and a load holds the store it
// builds and the op in hand, never the whole snapshot.
//
// Since format version 2, snapshots preserve annotation and referent IDs
// and the store's ID counters, so a loaded store is ID-for-ID identical to
// the exported one — the property the durable layer (internal/durable)
// relies on when it uses snapshots as write-ahead-log checkpoints.
// Version-1 snapshots (no IDs) still load; their IDs are reassigned
// densely in commit order as before.
//
// The per-entity Dump*/Apply* pairs in this package are the single codec
// for store mutations, and Op (op.go) is the one envelope around them:
// what a mutation looks like and how to apply it. Export/Load compose the
// pairs over whole stores; internal/durable logs one Op per mutation in
// its binary form (binary.go: AppendOp, DecodeOp, the same per-dump
// encoding a checkpoint is made of) and replays it with Op.Apply;
// internal/shard routes an Op by what it holds.
// A live commit is an op too (CommitOp): one whose IDs the session fills
// in (Op.Run), so what is served, logged and replayed is one value.
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"maps"
	"slices"
	"sort"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/trace"
	"graphitti/internal/xmldoc"
)

// Version identifies the snapshot format. Version 2 added ID preservation
// (annotation/referent IDs and the store counters).
const Version = 2

// Snapshot is the portable representation of a store.
type Snapshot struct {
	Version      int              `json:"version"`
	Ontologies   []OntologyDump   `json:"ontologies,omitempty"`
	Systems      []SystemDump     `json:"systems,omitempty"`
	Sequences    []SequenceDump   `json:"sequences,omitempty"`
	Alignments   []AlignmentDump  `json:"alignments,omitempty"`
	Trees        []TreeDump       `json:"trees,omitempty"`
	Graphs       []GraphDump      `json:"graphs,omitempty"`
	Images       []ImageDump      `json:"images,omitempty"`
	RecordTables []TableDump      `json:"recordTables,omitempty"`
	Annotations  []AnnotationDump `json:"annotations,omitempty"`
	// Rules are the propagation rules (internal/prop). Derived facts are
	// never persisted: loading re-adds the rules, which re-derives them.
	Rules []RuleDump `json:"rules,omitempty"`
	// NextAnn/NextRef are the store's ID counters at export time (v2).
	// They can run ahead of the highest live ID when annotations or
	// referents were deleted.
	NextAnn uint64 `json:"nextAnn,omitempty"`
	NextRef uint64 `json:"nextRef,omitempty"`
}

// OntologyDump serialises a term graph.
type OntologyDump struct {
	Name  string     `json:"name"`
	Terms []TermDump `json:"terms"`
	Edges []EdgeDump `json:"edges,omitempty"`
}

// TermDump serialises one ontology term.
type TermDump struct {
	ID       string   `json:"id"`
	Name     string   `json:"name,omitempty"`
	Def      string   `json:"def,omitempty"`
	Synonyms []string `json:"synonyms,omitempty"`
}

// EdgeDump serialises one quantified relationship.
type EdgeDump struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Rel   string `json:"rel"`
	Quant uint8  `json:"quant,omitempty"`
}

// SystemDump serialises a coordinate system.
type SystemDump struct {
	Name   string        `json:"name"`
	Bounds [2][3]float64 `json:"bounds"`
	Dims   int           `json:"dims"`
}

// SequenceDump serialises a sequence.
type SequenceDump struct {
	ID          string `json:"id"`
	Kind        uint8  `json:"kind"`
	Description string `json:"description,omitempty"`
	Domain      string `json:"domain"`
	Offset      int64  `json:"offset"`
	Residues    string `json:"residues"`
}

// AlignmentDump serialises an alignment.
type AlignmentDump struct {
	ID     string   `json:"id"`
	RowIDs []string `json:"rowIds"`
	Rows   []string `json:"rows"`
}

// TreeDump serialises a phylogenetic tree.
type TreeDump struct {
	ID     string `json:"id"`
	Newick string `json:"newick"`
}

// GraphDump serialises an interaction graph.
type GraphDump struct {
	ID           string            `json:"id"`
	Molecules    []MoleculeDump    `json:"molecules"`
	Interactions []InteractionDump `json:"interactions,omitempty"`
}

// MoleculeDump serialises an interaction-graph node.
type MoleculeDump struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Type uint8  `json:"type"`
}

// InteractionDump serialises one interaction.
type InteractionDump struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Kind  string  `json:"kind"`
	Score float64 `json:"score,omitempty"`
}

// ImageDump serialises a registered image.
type ImageDump struct {
	ID       string        `json:"id"`
	System   string        `json:"system"`
	Modality string        `json:"modality,omitempty"`
	Subject  string        `json:"subject,omitempty"`
	Dims     int           `json:"dims"`
	Local    [2][3]float64 `json:"local"`
	Scale    [3]float64    `json:"scale"`
	Offset   [3]float64    `json:"offset"`
}

// TableDump serialises a user record table.
type TableDump struct {
	Name    string        `json:"name"`
	Key     string        `json:"key"`
	Columns []ColumnDump  `json:"columns"`
	Rows    [][]ValueDump `json:"rows,omitempty"`
}

// ColumnDump serialises a column definition.
type ColumnDump struct {
	Name    string `json:"name"`
	Type    uint8  `json:"type"`
	NotNull bool   `json:"notNull,omitempty"`
}

// ValueDump serialises one typed cell. T is one of "null", "i", "f", "s",
// "b", "bytes".
type ValueDump struct {
	T     string  `json:"t"`
	I     int64   `json:"i,omitempty"`
	F     float64 `json:"f,omitempty"`
	S     string  `json:"s,omitempty"`
	B     bool    `json:"b,omitempty"`
	Bytes []byte  `json:"bytes,omitempty"`
}

// AnnotationDump serialises an annotation for replay. ID is present since
// format v2; zero means "assign the next free ID" (v1 snapshots).
type AnnotationDump struct {
	ID        uint64              `json:"id,omitempty"`
	DC        map[string][]string `json:"dc"`
	Body      string              `json:"body,omitempty"`
	Tags      []TagDump           `json:"tags,omitempty"`
	Referents []ReferentDump      `json:"referents,omitempty"`
	Terms     []TermRefDump       `json:"terms,omitempty"`
}

// RuleDump serialises a propagation rule.
type RuleDump struct {
	ID        string   `json:"id"`
	Keyword   string   `json:"keyword,omitempty"`
	Ontology  string   `json:"ontology,omitempty"`
	Term      string   `json:"term,omitempty"`
	Domain    string   `json:"domain,omitempty"`
	Kind      string   `json:"kind,omitempty"`
	Edge      string   `json:"edge"`
	Relations []string `json:"relations,omitempty"`
}

// TagDump is one user-defined tag.
type TagDump struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// TermRefDump references an ontology term.
type TermRefDump struct {
	Ontology string `json:"ontology"`
	Term     string `json:"term"`
}

// ReferentDump serialises a mark. ID is present since format v2; shared
// referents repeat the same ID in every annotation that holds them.
type ReferentDump struct {
	ID         uint64        `json:"id,omitempty"`
	Kind       uint8         `json:"kind"`
	ObjectType string        `json:"objectType"`
	ObjectID   string        `json:"objectId"`
	Domain     string        `json:"domain"`
	Lo         int64         `json:"lo,omitempty"`
	Hi         int64         `json:"hi,omitempty"`
	Rect       [2][3]float64 `json:"rect,omitzero"`
	RectDims   int           `json:"rectDims,omitempty"`
	Keys       []string      `json:"keys,omitempty"`
}

// Export captures the store as a snapshot of one pinned view: every
// section, every referent an annotation dump resolves and the ID counters
// are read from the same core.View, so the export is a point-in-time image
// of the store at that view's epoch whatever the writer does meanwhile —
// nothing it names can be missing. Over a shard set (WriteCheckpoint of
// its views) that is one view per shard: every annotation, referent and
// record table is homed on one shard, so nothing exported can dangle. The
// rules are the view's too (prop.RulesOf), the ones its derived table was
// computed under; derived facts are never exported, a load re-derives
// them.
func Export(s *core.Store) (*Snapshot, error) {
	return exportView(s.View())
}

// exportView is Export of a view already pinned.
func exportView(v *core.View) (*Snapshot, error) {
	snap, err := exportObjects(v, prop.RulesOf(v))
	if err != nil {
		return nil, err
	}
	for _, ann := range v.Annotations() {
		ad, err := DumpAnnotation(v, ann)
		if err != nil {
			return nil, err
		}
		snap.Annotations = append(snap.Annotations, ad)
	}
	return snap, nil
}

// exportObjects is exportView without the annotations: the sections a
// checkpoint writes from dumps, which are few and small, and the ID
// counters, with rules as the rule section. WriteCheckpoint writes the
// annotations straight from v.
func exportObjects(v *core.View, rules []prop.Rule) (*Snapshot, error) {
	snap := &Snapshot{Version: Version}
	for _, name := range v.Ontologies() {
		o, err := v.Ontology(name)
		if err != nil {
			return nil, err
		}
		snap.Ontologies = append(snap.Ontologies, DumpOntology(o))
	}
	if err := exportRegistered(v, snap); err != nil {
		return nil, err
	}
	for _, r := range rules {
		snap.Rules = append(snap.Rules, DumpRule(r))
	}
	return snap, nil
}

// exportRegistered appends to snap the objects registered on v, each
// section in its primary key's order — every section but the ontologies,
// the annotations and the rules — and raises snap's ID counters to v's.
func exportRegistered(v *core.View, snap *Snapshot) error {
	for _, name := range v.CoordinateSystems() {
		cs, err := v.CoordinateSystem(name)
		if err != nil {
			return err
		}
		snap.Systems = append(snap.Systems, DumpSystem(cs))
	}
	for _, id := range v.SequenceIDs() {
		sq, _, err := v.Sequence(id)
		if err != nil {
			return err
		}
		snap.Sequences = append(snap.Sequences, DumpSequence(sq))
	}
	for _, id := range v.AlignmentIDs() {
		a, err := v.Alignment(id)
		if err != nil {
			return err
		}
		snap.Alignments = append(snap.Alignments, DumpAlignment(a))
	}
	for _, id := range v.TreeIDs() {
		t, err := v.Tree(id)
		if err != nil {
			return err
		}
		snap.Trees = append(snap.Trees, DumpTree(t))
	}
	for _, id := range v.InteractionGraphIDs() {
		g, err := v.InteractionGraph(id)
		if err != nil {
			return err
		}
		snap.Graphs = append(snap.Graphs, DumpGraph(g))
	}
	for _, id := range v.Images() {
		im, err := v.Image(id)
		if err != nil {
			return err
		}
		snap.Images = append(snap.Images, DumpImage(im))
	}
	for _, name := range v.RecordTables() {
		schema, rows, err := v.RecordTable(name)
		if err != nil {
			return err
		}
		td := DumpSchema(schema)
		for _, r := range rows {
			td.Rows = append(td.Rows, DumpRow(r))
		}
		snap.RecordTables = append(snap.RecordTables, td)
	}
	nextAnn, nextRef := v.IDCounters()
	snap.NextAnn, snap.NextRef = max(snap.NextAnn, nextAnn), max(snap.NextRef, nextRef)
	return nil
}

// Write exports the store as JSON to w.
func Write(s *core.Store, w io.Writer) error {
	snap, err := Export(s)
	if err != nil {
		return err
	}
	return WriteSnapshot(snap, w)
}

// WriteSnapshot serializes an already-exported or decoded snapshot in
// the same format Write produces. The JSON is compact, one line; `jq .`
// is the form for reading.
func WriteSnapshot(snap *Snapshot, w io.Writer) error {
	return json.NewEncoder(w).Encode(snap)
}

// DumpOntology serialises a term graph.
func DumpOntology(o *ontology.Ontology) OntologyDump {
	d := OntologyDump{Name: o.Name()}
	for _, id := range o.Terms() {
		t, _ := o.Term(id)
		d.Terms = append(d.Terms, TermDump{
			ID: t.ID, Name: t.Name, Def: t.Def, Synonyms: t.Synonyms,
		})
		for _, e := range o.Parents(id) {
			d.Edges = append(d.Edges, EdgeDump{
				From: e.From, To: e.To, Rel: e.Rel, Quant: uint8(e.Quant),
			})
		}
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i].From != d.Edges[j].From {
			return d.Edges[i].From < d.Edges[j].From
		}
		return d.Edges[i].To < d.Edges[j].To
	})
	return d
}

// DumpSystem serialises a coordinate system.
func DumpSystem(cs *imaging.CoordinateSystem) SystemDump {
	return SystemDump{
		Name: cs.Name, Dims: cs.Dims,
		Bounds: [2][3]float64{cs.Bounds.Min, cs.Bounds.Max},
	}
}

// DumpSequence serialises a sequence.
func DumpSequence(sq *seq.Sequence) SequenceDump {
	return SequenceDump{
		ID: sq.ID, Kind: uint8(sq.Kind), Description: sq.Description,
		Domain: sq.Domain, Offset: sq.Offset, Residues: sq.Residues,
	}
}

// DumpAlignment serialises an alignment.
func DumpAlignment(a *msa.Alignment) AlignmentDump {
	return AlignmentDump{ID: a.ID, RowIDs: a.RowIDs, Rows: a.Rows}
}

// DumpTree serialises a phylogenetic tree.
func DumpTree(t *phylo.Tree) TreeDump {
	return TreeDump{ID: t.ID, Newick: t.Newick()}
}

// DumpGraph serialises an interaction graph.
func DumpGraph(g *interact.Graph) GraphDump {
	d := GraphDump{ID: g.ID}
	for _, id := range g.Molecules() {
		m, _ := g.Molecule(id)
		d.Molecules = append(d.Molecules, MoleculeDump{
			ID: m.ID, Name: m.Name, Type: uint8(m.Type),
		})
	}
	for _, e := range g.Interactions() {
		d.Interactions = append(d.Interactions, InteractionDump{
			A: e.A, B: e.B, Kind: e.Kind, Score: e.Score,
		})
	}
	return d
}

// DumpImage serialises a registered image.
func DumpImage(im *imaging.Image) ImageDump {
	return ImageDump{
		ID: im.ID, System: im.System, Modality: im.Modality,
		Subject: im.Subject, Dims: im.Local.Dims,
		Local: [2][3]float64{im.Local.Min, im.Local.Max},
		Scale: im.Reg.Scale, Offset: im.Reg.Offset,
	}
}

// DumpSchema serialises a record-table schema (no rows).
func DumpSchema(schema *relstore.Schema) TableDump {
	td := TableDump{Name: schema.Name, Key: schema.Key}
	for _, c := range schema.Columns {
		td.Columns = append(td.Columns, ColumnDump{
			Name: c.Name, Type: uint8(c.Type), NotNull: c.NotNull,
		})
	}
	return td
}

// DumpRow serialises one record row.
func DumpRow(r relstore.Row) []ValueDump {
	vr := make([]ValueDump, len(r))
	for i, v := range r {
		vr[i] = dumpValue(v)
	}
	return vr
}

func dumpValue(v relstore.Value) ValueDump {
	if v.IsNull() {
		return ValueDump{T: "null"}
	}
	switch v.Type() {
	case relstore.Int64:
		return ValueDump{T: "i", I: v.Int()}
	case relstore.Float64:
		return ValueDump{T: "f", F: v.Float()}
	case relstore.String:
		return ValueDump{T: "s", S: v.Str()}
	case relstore.Bool:
		return ValueDump{T: "b", B: v.BoolVal()}
	default:
		return ValueDump{T: "bytes", Bytes: v.BytesVal()}
	}
}

// RestoreValue rebuilds a typed cell from its dump.
func RestoreValue(d ValueDump) (relstore.Value, error) {
	switch d.T {
	case "null":
		return relstore.Null, nil
	case "i":
		return relstore.I(d.I), nil
	case "f":
		return relstore.F(d.F), nil
	case "s":
		return relstore.S(d.S), nil
	case "b":
		return relstore.B(d.B), nil
	case "bytes":
		return relstore.Blob(d.Bytes), nil
	default:
		return relstore.Value{}, fmt.Errorf("persist: unknown value tag %q", d.T)
	}
}

// DumpAnnotation serialises an annotation of view v, including its ID and
// the IDs of its referents (format v2), which it resolves in v.
func DumpAnnotation(v *core.View, ann *core.Annotation) (AnnotationDump, error) {
	d := AnnotationDump{ID: ann.ID, DC: dumpMeta(ann.DC), Body: bodyOf(ann.Content), Terms: dumpTerms(ann.Terms)}
	eachTag(ann.Content, func(t TagDump) { d.Tags = append(d.Tags, t) })
	for refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil {
			return d, err
		}
		d.Referents = append(d.Referents, dumpReferent(ref))
	}
	return d, nil
}

// bodyOf returns the body text of a committed annotation's content
// document: body and user tags live there.
func bodyOf(doc *xmldoc.Document) string {
	if body := doc.Root.FirstChildElement("body"); body.Valid() {
		return body.Text()
	}
	return ""
}

// eachTag visits the user tags of a committed annotation's content
// document, in order.
func eachTag(doc *xmldoc.Document, fn func(TagDump)) {
	if tags := doc.Root.FirstChildElement("tags"); tags.Valid() {
		for el := tags.FirstChild(); el.Valid(); el = el.NextSibling() {
			fn(TagDump{Name: el.Name(), Value: el.Text()})
		}
	}
}

// dumpDC serialises a builder's Dublin Core record.
func dumpDC(dc *dublincore.Record) map[string][]string {
	d := map[string][]string{}
	for _, e := range dc.Elements() {
		d[string(e)] = dc.Get(e)
	}
	return d
}

// dumpMeta serialises the Dublin Core values of a committed annotation,
// read through the view of its document, as dumpDC serialises the record
// they were written from.
func dumpMeta(m dublincore.Meta) map[string][]string {
	d := map[string][]string{}
	for e, vals := range m.All {
		d[string(e)] = slices.Collect(vals.All)
	}
	return d
}

// dumpReferent serialises a mark, with its ID (0 for an uncommitted one).
func dumpReferent(ref *core.Referent) ReferentDump {
	rd := ReferentDump{ID: ref.ID, Kind: uint8(ref.Kind), ObjectType: string(ref.ObjectType),
		ObjectID: ref.ObjectID, Domain: ref.Domain, Lo: ref.Interval.Lo, Hi: ref.Interval.Hi, Keys: ref.Keys}
	if ref.Kind == core.RegionReferent {
		rd.Rect = [2][3]float64{ref.Region.Min, ref.Region.Max}
		rd.RectDims = ref.Region.Dims
	}
	return rd
}

// dumpTerms serialises ontology references.
func dumpTerms(terms iter.Seq[core.TermRef]) []TermRefDump {
	var d []TermRefDump
	for tr := range terms {
		d = append(d, TermRefDump{Ontology: tr.Ontology, Term: tr.TermID})
	}
	return d
}

// DumpRule serialises a propagation rule.
func DumpRule(r prop.Rule) RuleDump {
	return RuleDump{
		ID: r.ID, Keyword: r.Keyword, Ontology: r.Ontology, Term: r.Term,
		Domain: r.Domain, Kind: r.Kind, Edge: string(r.Edge), Relations: r.Relations,
	}
}

// RestoreRule rebuilds a propagation rule from its dump.
func RestoreRule(d RuleDump) prop.Rule {
	return prop.Rule{
		ID: d.ID, Keyword: d.Keyword, Ontology: d.Ontology, Term: d.Term,
		Domain: d.Domain, Kind: d.Kind, Edge: prop.EdgeKind(d.Edge), Relations: d.Relations,
	}
}

// ApplyOntology rebuilds and registers a dumped ontology.
func ApplyOntology(x *core.Tx, od OntologyDump) error {
	o := ontology.New(od.Name)
	for _, td := range od.Terms {
		t, err := o.AddTerm(td.ID, td.Name)
		if err != nil {
			return fmt.Errorf("persist: ontology %s: %w", od.Name, err)
		}
		t.Def = td.Def
		t.Synonyms = td.Synonyms
	}
	for _, ed := range od.Edges {
		if err := o.AddEdge(ed.From, ed.To, ed.Rel, ontology.Quantifier(ed.Quant)); err != nil {
			return fmt.Errorf("persist: ontology %s: %w", od.Name, err)
		}
	}
	return x.RegisterOntology(o)
}

// ApplySystem rebuilds and registers a dumped coordinate system.
func ApplySystem(x *core.Tx, sd SystemDump) error {
	cs, err := imaging.NewCoordinateSystem(sd.Name, rtree.Rect{
		Min: sd.Bounds[0], Max: sd.Bounds[1], Dims: sd.Dims,
	})
	if err != nil {
		return fmt.Errorf("persist: system %s: %w", sd.Name, err)
	}
	return x.RegisterCoordinateSystem(cs)
}

// ApplySequence rebuilds and registers a dumped sequence.
func ApplySequence(x *core.Tx, qd SequenceDump) error {
	sq, err := seq.New(qd.ID, seq.Kind(qd.Kind), qd.Residues)
	if err != nil {
		return fmt.Errorf("persist: sequence %s: %w", qd.ID, err)
	}
	sq.Description = qd.Description
	sq.Domain = qd.Domain
	sq.Offset = qd.Offset
	return x.RegisterSequence(sq)
}

// ApplyAlignment rebuilds and registers a dumped alignment.
func ApplyAlignment(x *core.Tx, ad AlignmentDump) error {
	a, err := msa.New(ad.ID, ad.RowIDs, ad.Rows)
	if err != nil {
		return fmt.Errorf("persist: alignment %s: %w", ad.ID, err)
	}
	return x.RegisterAlignment(a)
}

// ApplyTree rebuilds and registers a dumped phylogenetic tree.
func ApplyTree(x *core.Tx, td TreeDump) error {
	t, err := phylo.ParseNewick(td.ID, td.Newick)
	if err != nil {
		return fmt.Errorf("persist: tree %s: %w", td.ID, err)
	}
	return x.RegisterTree(t)
}

// ApplyGraph rebuilds and registers a dumped interaction graph.
func ApplyGraph(x *core.Tx, gd GraphDump) error {
	g := interact.NewGraph(gd.ID)
	for _, md := range gd.Molecules {
		if _, err := g.AddMolecule(md.ID, md.Name, interact.MoleculeType(md.Type)); err != nil {
			return fmt.Errorf("persist: graph %s: %w", gd.ID, err)
		}
	}
	for _, ed := range gd.Interactions {
		if err := g.AddInteraction(ed.A, ed.B, ed.Kind, ed.Score); err != nil {
			return fmt.Errorf("persist: graph %s: %w", gd.ID, err)
		}
	}
	return x.RegisterInteractionGraph(g)
}

// ApplyImage rebuilds and registers a dumped image.
func ApplyImage(x *core.Tx, id ImageDump) error {
	reg := imaging.Registration{Scale: id.Scale, Offset: id.Offset}
	im, err := imaging.NewImage(id.ID, id.System, rtree.Rect{
		Min: id.Local[0], Max: id.Local[1], Dims: id.Dims,
	}, reg)
	if err != nil {
		return fmt.Errorf("persist: image %s: %w", id.ID, err)
	}
	im.Modality = id.Modality
	im.Subject = id.Subject
	return x.RegisterImage(im)
}

// ApplyTable creates a dumped record table and inserts its rows.
func ApplyTable(x *core.Tx, td TableDump) error {
	cols := make([]relstore.Column, len(td.Columns))
	for i, cd := range td.Columns {
		cols[i] = relstore.Column{Name: cd.Name, Type: relstore.Type(cd.Type), NotNull: cd.NotNull}
	}
	schema, err := relstore.NewSchema(td.Name, td.Key, cols...)
	if err != nil {
		return fmt.Errorf("persist: table %s: %w", td.Name, err)
	}
	if err := x.CreateRecordTable(schema); err != nil {
		return err
	}
	for _, rd := range td.Rows {
		if err := ApplyRecord(x, td.Name, rd); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRecord inserts one dumped row into a record table.
func ApplyRecord(x *core.Tx, table string, rd []ValueDump) error {
	row := make(relstore.Row, len(rd))
	for i, vd := range rd {
		v, err := RestoreValue(vd)
		if err != nil {
			return err
		}
		row[i] = v
	}
	if err := x.InsertRecord(table, row); err != nil {
		return fmt.Errorf("persist: table %s: %w", table, err)
	}
	return nil
}

// ApplyAnnotation rebuilds and commits a dumped annotation and returns
// what it committed. A dump with an ID pins it: the annotation and its
// referents commit with exactly the dump's IDs, which is how a logged or
// exported annotation replays. A dump without one is a live commit's op
// (CommitOp) or a v1 snapshot's entry: the session assigns the IDs, and a
// referent ID names a committed referent to reuse. The commit hangs its
// span off sp. ad is not written to.
func ApplyAnnotation(x *core.Tx, ad AnnotationDump, sp *trace.Span) (*core.Annotation, error) {
	b := core.NewBuilder().WithSpan(sp).Body(ad.Body)
	for _, e := range slices.Sorted(maps.Keys(ad.DC)) {
		b.DCElement(dublincore.Element(e), ad.DC[e]...)
	}
	for _, tg := range ad.Tags {
		b.Tag(tg.Name, tg.Value)
	}
	var refIDs []uint64
	for _, rd := range ad.Referents {
		ref := &core.Referent{
			Kind:       core.ReferentKind(rd.Kind),
			ObjectType: core.ObjectType(rd.ObjectType),
			ObjectID:   rd.ObjectID,
			Domain:     rd.Domain,
			Interval:   interval.Interval{Lo: rd.Lo, Hi: rd.Hi},
			Keys:       rd.Keys,
		}
		if ref.Kind == core.RegionReferent {
			ref.Region = &rtree.Rect{Min: rd.Rect[0], Max: rd.Rect[1], Dims: rd.RectDims}
		}
		if ad.ID == 0 {
			ref.ID = rd.ID
		} else {
			refIDs = append(refIDs, rd.ID)
		}
		b.Refer(ref)
	}
	for _, tr := range ad.Terms {
		b.OntologyRef(tr.Ontology, tr.Term)
	}
	if ad.ID == 0 {
		return x.Commit(b)
	}
	ann, err := x.CommitWithIDs(b, ad.ID, refIDs)
	if err != nil {
		return nil, fmt.Errorf("persist: annotation %d: %w", ad.ID, err)
	}
	return ann, nil
}

// Load rebuilds a store from the ops of src (LoadWith).
func Load(src Source) (*core.Store, error) {
	return LoadWith(src, core.StoreOptions{})
}

// LoadWith is the loader: it rebuilds a store, built with opts, from the
// ops of src — every registration, record and annotation replayed through
// the normal pipeline as they arrive — in one writer session (Batch):
// the ops in order, then the rules as one swap, then the ID counters. So
// the view it publishes is as many epochs on as it applied ops, and a
// load holds the store being built and the op in hand, not the snapshot.
// What src or an op refuses fails the load, and the store is dropped.
func LoadWith(src Source, opts core.StoreOptions) (*core.Store, error) {
	s := core.NewStoreWithOptions(opts)
	if err := s.Batch(func(x *core.Tx) error { return Replay(x, src) }); err != nil {
		return nil, err
	}
	return s, nil
}

// Replay applies the ops of src in the writer session x, then installs
// its tail: the loop of LoadWith, for a caller whose session goes on
// after the snapshot (a data directory's open replays its log next).
func Replay(x *core.Tx, src Source) error {
	tail, err := src.Each(func(op Op) error { return op.Apply(x) })
	if err != nil {
		return err
	}
	return tail.install(x)
}

// Each is the snapshot as a Source: its version checked, its ops in load
// order, then its tail. It is how a snapshot built in memory — an export,
// or a test's — loads.
func (snap *Snapshot) Each(apply func(Op) error) (Tail, error) {
	if err := snap.applyObjects(apply); err != nil {
		return Tail{}, err
	}
	for i := range snap.Annotations {
		if err := apply(Op{Kind: core.OpCommitAnnotation, Annotation: &snap.Annotations[i]}); err != nil {
			return Tail{}, err
		}
	}
	return snap.tail(), nil
}

// applyObjects checks the snapshot's version and applies the ops that
// register its objects, in load order: every section but the annotations.
func (snap *Snapshot) applyObjects(apply func(Op) error) error {
	if err := checkVersion(snap.Version); err != nil {
		return err
	}
	for op := range snap.objectOps {
		if err := apply(op); err != nil {
			return err
		}
	}
	return nil
}

func (snap *Snapshot) tail() Tail {
	return Tail{Version: snap.Version, Rules: snap.Rules, NextAnn: snap.NextAnn, NextRef: snap.NextRef}
}

// Decode reads a snapshot in either form (ReadOps) into a Snapshot, for a
// reader that wants the dumps themselves; a load takes the stream
// (Read, or LoadWith of ReadOps). Nothing bounds what a checkpoint
// inflates to: Decode is for files the operator owns.
func Decode(r io.Reader) (*Snapshot, error) {
	snap := new(Snapshot)
	tail, err := ReadOps(r, 0).Each(snap.add)
	if err != nil {
		return nil, err
	}
	snap.Version, snap.Rules, snap.NextAnn, snap.NextRef = tail.Version, tail.Rules, tail.NextAnn, tail.NextRef
	return snap, nil
}

// add appends the dump op holds to its section.
func (snap *Snapshot) add(op Op) error {
	switch op.Kind {
	case core.OpRegisterOntology:
		snap.Ontologies = append(snap.Ontologies, *op.Ontology)
	case core.OpRegisterSystem:
		snap.Systems = append(snap.Systems, *op.System)
	case core.OpRegisterSequence:
		snap.Sequences = append(snap.Sequences, *op.Sequence)
	case core.OpRegisterAlignment:
		snap.Alignments = append(snap.Alignments, *op.Alignment)
	case core.OpRegisterTree:
		snap.Trees = append(snap.Trees, *op.Tree)
	case core.OpRegisterInteractionGraph:
		snap.Graphs = append(snap.Graphs, *op.Graph)
	case core.OpRegisterImage:
		snap.Images = append(snap.Images, *op.Image)
	case core.OpCreateRecordTable:
		snap.RecordTables = append(snap.RecordTables, *op.Table)
	case core.OpCommitAnnotation:
		snap.Annotations = append(snap.Annotations, *op.Annotation)
	}
	return nil
}

// Read loads a snapshot in either form, streamed, and rebuilds the store.
func Read(r io.Reader) (*core.Store, error) {
	return LoadWith(ReadOps(r, 0), core.StoreOptions{})
}
