package persist_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
)

// everyKindOps is an op of every kind, with every value tag and an
// escaped code of each table, followed by the load ops of both studies.
func everyKindOps(t testing.TB) []persist.Op {
	ops := []persist.Op{
		{Kind: core.OpCreateRecordTable, Table: &persist.TableDump{Name: "t", Key: "k",
			Columns: []persist.ColumnDump{{Name: "k", Type: 2, NotNull: true}, {Name: "v", Type: 1}},
			Rows: [][]persist.ValueDump{
				{{T: "s", S: "a"}, {T: "f", F: -0.5}},
				{{T: "s", S: "b"}, {T: "null"}},
			}}},
		persist.RecordOp("t", nil),
		{Kind: core.OpInsertRecord, RecTable: "t", Row: []persist.ValueDump{
			{T: "i", I: -7}, {T: "b", B: true}, {T: "bytes", Bytes: []byte{0, 1, 2}}, {T: "wat"}}},
		{Kind: core.OpCommitAnnotation, Annotation: &persist.AnnotationDump{ID: 9,
			DC:   map[string][]string{"creator": {"a", "b"}, "date": {"2008-01-01"}, "x-unknown": {"kept"}},
			Body: "body", Tags: []persist.TagDump{{Name: "k", Value: "v"}},
			Referents: []persist.ReferentDump{
				{ID: 3, Kind: uint8(core.IntervalReferent), ObjectType: "dna_sequences", ObjectID: "s", Domain: "d", Lo: -4, Hi: 1 << 40},
				{ID: 4, Kind: uint8(core.RegionReferent), ObjectType: "images", ObjectID: "i", Domain: "atlas",
					Rect: [2][3]float64{{1, 2, 0}, {3, 4, 0}}, RectDims: 2},
				{Kind: uint8(core.CladeReferent), ObjectType: "some_new_type", ObjectID: "tr", Domain: "tr", Keys: []string{"a", "b"}},
			},
			Terms: []persist.TermRefDump{{Ontology: "go", Term: "protease"}}}},
		{Kind: core.OpDeleteAnnotation, DeleteID: 1 << 33},
		persist.RuleOp(prop.Rule{ID: "r", Keyword: "k", Edge: prop.EdgeOverlap, Domain: "d", Relations: []string{"part_of"}}),
		{Kind: core.OpDeleteRule, RuleID: "r"},
	}
	for _, s := range []*core.Store{influenzaStore(t), neuroStore(t)} {
		snap := exportOf(t, s)
		for op := range snap.Ops {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestBinaryOpRoundTrip: an op through its binary form is the op its JSON
// form describes, byte for byte, and every kind is covered.
func TestBinaryOpRoundTrip(t *testing.T) {
	kinds := map[core.OpKind]bool{}
	for _, op := range everyKindOps(t) {
		b := persist.AppendOp(nil, op)
		got, err := persist.DecodeOp(b)
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if g, w := mustJSON(t, got), mustJSON(t, op); !bytes.Equal(g, w) {
			t.Fatalf("%s through the binary form:\n got %s\nwant %s", op.Kind, g, w)
		}
		if j := mustJSON(t, op); len(b) >= len(j) {
			t.Errorf("%s: %d binary bytes for %d of JSON", op.Kind, len(b), len(j))
		}
		kinds[op.Kind] = true
	}
	if len(kinds) != 13 {
		t.Fatalf("%d op kinds covered, want 13", len(kinds))
	}
}

// TestDecodeOpBoundedByInput: a short record whose counts claim more than
// it holds is refused before anything of that size is allocated.
func TestDecodeOpBoundedByInput(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^56-1
	for name, rec := range map[string][]byte{
		"string length": append([]byte{byte(core.OpDeleteRule)}, huge...),
		"row count":     append([]byte{byte(core.OpInsertRecord), 0}, huge...),
		"dc count":      append([]byte{byte(core.OpCommitAnnotation), 1}, huge...),
		"trailing":      {byte(core.OpDeleteAnnotation), 1, 0},
		"unknown kind":  {200},
		"empty":         {},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := persist.DecodeOp(rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
			t.Errorf("%s: a %d-byte record allocated %d bytes", name, len(rec), n)
		}
	}
}

// TestCheckpointRoundTrip: a binary checkpoint decodes to the snapshot it
// was written from — written as JSON, the bytes Write gives — in fewer
// bytes (the influenza study's are mostly residues, which no form shrinks).
func TestCheckpointRoundTrip(t *testing.T) {
	for name, s := range map[string]*core.Store{"influenza": influenzaStore(t), "neuro": neuroStore(t)} {
		var js, bin bytes.Buffer
		if err := persist.Write(s, &js); err != nil {
			t.Fatal(err)
		}
		if err := persist.WriteCheckpoint(exportOf(t, s), &bin); err != nil {
			t.Fatal(err)
		}
		snap, err := persist.Decode(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if err := persist.WriteSnapshot(snap, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), js.Bytes()) {
			t.Fatalf("%s: the checkpoint decodes to a different snapshot", name)
		}
		if bin.Len() >= js.Len() {
			t.Errorf("%s: checkpoint of %d bytes for %d of JSON", name, bin.Len(), js.Len())
		}
	}
}

// TestCodeTablesPinned: the code tables name the Dublin Core elements and
// the object types core has, so none of them escapes to a literal.
func TestCodeTablesPinned(t *testing.T) {
	var dc []string
	for _, e := range dublincore.Elements {
		dc = append(dc, string(e))
	}
	if !slices.Equal(persist.DCElements, dc) {
		t.Errorf("Dublin Core code table %v, elements %v", persist.DCElements, dc)
	}
	for _, typ := range []core.ObjectType{core.TypeDNA, core.TypeRNA, core.TypeProtein, core.TypeAlignment,
		core.TypeTree, core.TypeInteraction, core.TypeImage, core.TypeRecord} {
		if !slices.Contains(persist.ObjectTypes, string(typ)) {
			t.Errorf("object type %s has no code", typ)
		}
	}
}

// FuzzBinaryOp: DecodeOp on arbitrary bytes never panics and allocates in
// proportion to the input at most; what decodes re-encodes to a fixed
// point and keeps its JSON form.
func FuzzBinaryOp(f *testing.F) {
	for _, op := range everyKindOps(f) {
		f.Add(persist.AppendOp(nil, op))
	}
	f.Add(persist.AppendOp(nil, persist.Op{Kind: core.OpRegisterSystem, System: &persist.SystemDump{
		Name: "nan", Bounds: [2][3]float64{{math.NaN(), 0, 0}, {math.Inf(1), 1, 0}}, Dims: 2}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op, err := persist.DecodeOp(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 4096+256*uint64(len(data)) {
			t.Fatalf("a %d-byte record allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		b := persist.AppendOp(nil, op)
		again, err := persist.DecodeOp(b)
		if err != nil {
			t.Fatalf("re-encoded op does not decode: %v", err)
		}
		if b2 := persist.AppendOp(nil, again); !bytes.Equal(b2, b) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", b, b2)
		}
		j1, err1 := json.Marshal(op)
		j2, err2 := json.Marshal(again)
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(j1, j2) {
			t.Fatalf("JSON form changed across the binary round trip:\n%s (%v)\n%s (%v)", j1, err1, j2, err2)
		}
		if err1 == nil && !reflect.DeepEqual(op, again) {
			t.Fatalf("op changed across the binary round trip: %s", j1)
		}
	})
}
