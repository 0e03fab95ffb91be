// Package persist serialises a Graphitti store to a portable snapshot and
// rebuilds stores from snapshots. A snapshot has two forms: JSON, the
// export and debug form (GET /api/snapshot, Write), and a compact binary
// checkpoint, DEFLATE-compressed, the form a data directory holds
// (WriteCheckpoint). Decode reads either.
//
// The snapshot is a logical export — registered ontologies, coordinate
// systems, data objects, record tables and annotations — not a byte-level
// image. Load replays the snapshot through the normal registration and
// commit pipeline, so every index (interval trees, R-trees, keyword index,
// a-graph) is rebuilt consistently and all invariants re-checked.
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
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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
// nothing it names can be missing. Over a shard set (shard.Export) that
// is one view per shard, pinned in turn: every annotation, referent and
// record table is homed on one shard, so nothing exported can dangle. The
// rule list is read off the propagator and is the one section not in the
// view; derived facts are never exported, so a rule that lands beside the
// pin changes only what a load re-derives.
func Export(s *core.Store) (*Snapshot, error) {
	return exportView(s.View(), prop.RulesOf(s))
}

// exportView is Export of a view already pinned, with the rule list read
// beside it.
func exportView(v *core.View, rules []prop.Rule) (*Snapshot, error) {
	snap := &Snapshot{Version: Version}

	for _, name := range v.Ontologies() {
		o, err := v.Ontology(name)
		if err != nil {
			return nil, err
		}
		snap.Ontologies = append(snap.Ontologies, DumpOntology(o))
	}
	for _, name := range v.CoordinateSystems() {
		cs, err := v.CoordinateSystem(name)
		if err != nil {
			return nil, err
		}
		snap.Systems = append(snap.Systems, DumpSystem(cs))
	}
	for _, id := range v.SequenceIDs() {
		sq, _, err := v.Sequence(id)
		if err != nil {
			return nil, err
		}
		snap.Sequences = append(snap.Sequences, DumpSequence(sq))
	}
	for _, id := range v.AlignmentIDs() {
		a, err := v.Alignment(id)
		if err != nil {
			return nil, err
		}
		snap.Alignments = append(snap.Alignments, DumpAlignment(a))
	}
	for _, id := range v.TreeIDs() {
		t, err := v.Tree(id)
		if err != nil {
			return nil, err
		}
		snap.Trees = append(snap.Trees, DumpTree(t))
	}
	for _, id := range v.InteractionGraphIDs() {
		g, err := v.InteractionGraph(id)
		if err != nil {
			return nil, err
		}
		snap.Graphs = append(snap.Graphs, DumpGraph(g))
	}
	for _, id := range v.Images() {
		im, err := v.Image(id)
		if err != nil {
			return nil, err
		}
		snap.Images = append(snap.Images, DumpImage(im))
	}
	for _, name := range v.RecordTables() {
		schema, rows, err := v.RecordTable(name)
		if err != nil {
			return nil, err
		}
		td := DumpSchema(schema)
		for _, r := range rows {
			td.Rows = append(td.Rows, DumpRow(r))
		}
		snap.RecordTables = append(snap.RecordTables, td)
	}
	for _, ann := range v.Annotations() {
		ad, err := DumpAnnotation(v, ann)
		if err != nil {
			return nil, err
		}
		snap.Annotations = append(snap.Annotations, ad)
	}
	for _, r := range rules {
		snap.Rules = append(snap.Rules, DumpRule(r))
	}
	snap.NextAnn, snap.NextRef = v.IDCounters()
	return snap, nil
}

// Write exports the store as JSON to w.
func Write(s *core.Store, w io.Writer) error {
	snap, err := Export(s)
	if err != nil {
		return err
	}
	return WriteSnapshot(snap, w)
}

// WriteSnapshot serializes an already-exported snapshot in the same
// format Write produces — the sharded store merges per-shard exports and
// emits the result through this. The JSON is compact, one line — a
// restart reads every byte of it; `jq .` is the form for reading.
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
	d := AnnotationDump{ID: ann.ID, DC: dumpDC(ann.DC), Terms: dumpTerms(ann.Terms)}
	// Body and user tags live in the content document.
	if body := ann.Content.Root.FirstChildElement("body"); body.Valid() {
		d.Body = body.Text()
	}
	if tags := ann.Content.Root.FirstChildElement("tags"); tags.Valid() {
		for el := tags.FirstChild(); el.Valid(); el = el.NextSibling() {
			d.Tags = append(d.Tags, TagDump{Name: el.Name(), Value: el.Text()})
		}
	}
	for _, refID := range ann.ReferentIDs {
		ref, err := v.Referent(refID)
		if err != nil {
			return d, err
		}
		d.Referents = append(d.Referents, dumpReferent(ref))
	}
	return d, nil
}

// dumpDC serialises a Dublin Core record.
func dumpDC(dc *dublincore.Record) map[string][]string {
	d := map[string][]string{}
	for _, e := range dc.Elements() {
		d[string(e)] = dc.Get(e)
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
func dumpTerms(terms []core.TermRef) []TermRefDump {
	var d []TermRefDump
	for _, tr := range terms {
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
			ref.Region = rtree.Rect{Min: rd.Rect[0], Max: rd.Rect[1], Dims: rd.RectDims}
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

// Load rebuilds a store from a snapshot by replaying every registration,
// record and annotation of it through the normal pipeline, as one writer
// session: one published view for the whole snapshot.
func Load(snap *Snapshot) (*core.Store, error) {
	return LoadWith(snap, core.StoreOptions{})
}

// LoadWith is Load into a store built with opts — how one shard of a
// sharded deployment rebuilds with its shard label and shared ID source.
func LoadWith(snap *Snapshot, opts core.StoreOptions) (*core.Store, error) {
	return LoadPart(snap, opts, nil)
}

// LoadPart is LoadWith over the registrations and annotations whose op
// keep accepts (nil accepts all) — how one shard loads its part of a
// deployment's snapshot, placed by the rule it places live ops with.
// Rules and the ID counters load whatever keep says. The load is one
// Batch: the snapshot's ops in load order, then the rules as one swap,
// then the counters — so the view it publishes is as many epochs on as
// it applied ops.
func LoadPart(snap *Snapshot, opts core.StoreOptions, keep func(Op) bool) (*core.Store, error) {
	if snap.Version < 1 || snap.Version > Version {
		return nil, fmt.Errorf("persist: snapshot version %d, want 1..%d", snap.Version, Version)
	}
	s := core.NewStoreWithOptions(opts)
	err := s.Batch(func(x *core.Tx) error {
		for op := range snap.ops {
			if keep == nil || keep(op) {
				if err := op.Apply(x); err != nil {
					return err
				}
			}
		}
		// Rules last, installed as one swap: the derived table is rebuilt
		// once over the full store, instead of every replayed commit paying
		// the delta path or every rule paying its own recompute.
		if len(snap.Rules) > 0 {
			rules := make([]prop.Rule, len(snap.Rules))
			for i, rd := range snap.Rules {
				rules[i] = RestoreRule(rd)
			}
			if err := prop.AddRules(x, rules...); err != nil {
				return fmt.Errorf("persist: rules: %w", err)
			}
		}
		if snap.NextAnn != 0 || snap.NextRef != 0 {
			return x.RestoreIDCounters(snap.NextAnn, snap.NextRef)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Decode parses a snapshot without loading it into a store. It reads
// either form, told apart by the leading bytes: the JSON export, or a
// binary checkpoint copied out of a data directory (WriteCheckpoint).
// Nothing bounds what a checkpoint inflates to: Decode is for files the
// operator owns; an upload goes through DecodeLimited.
func Decode(r io.Reader) (*Snapshot, error) {
	return DecodeLimited(r, 0)
}

// DecodeLimited is Decode with a cap on what a compressed checkpoint body
// may inflate to: past limit bytes (when limit is positive) it stops
// inflating and refuses the snapshot with ErrInflateLimit. The caller
// bounds what r itself holds.
func DecodeLimited(r io.Reader, limit int64) (*Snapshot, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(checkpointMagic)); string(head) == checkpointMagic {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("persist: decode: %w", err)
		}
		return decodeCheckpoint(data, limit)
	}
	var snap Snapshot
	if err := json.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decode: %w", err)
	}
	return &snap, nil
}

// Read loads a snapshot in either form and rebuilds the store.
func Read(r io.Reader) (*core.Store, error) {
	return ReadWith(r, core.StoreOptions{})
}

// ReadWith is Read into a store built with opts.
func ReadWith(r io.Reader, opts core.StoreOptions) (*core.Store, error) {
	snap, err := Decode(r)
	if err != nil {
		return nil, err
	}
	return LoadWith(snap, opts)
}
