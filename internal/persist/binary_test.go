package persist_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
		if _, err := persist.DecodeOp(rec); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if n := leastAllocated(func() { persist.DecodeOp(rec) }); n > 4096 {
			t.Errorf("%s: a %d-byte record allocated %d bytes", name, len(rec), n)
		}
	}
}

// leastAllocated is the fewest bytes of heap fn allocated over several
// runs. TotalAlloc is process-wide, so a run can be charged with what
// another goroutine allocated meanwhile; on one P, other goroutines run
// only where fn yields, and the least of several runs is exact for a
// deterministic fn.
func leastAllocated(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// plainBody inflates a format-2 checkpoint's body: format 1's body.
func plainBody(t testing.TB, checkpoint []byte) []byte {
	t.Helper()
	if !bytes.HasPrefix(checkpoint, []byte("GSNAP\x02")) {
		t.Fatalf("checkpoint starts %.6q, want format 2", checkpoint)
	}
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(checkpoint[6 : len(checkpoint)-4])))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sealed frames body as a checkpoint of the given format.
func sealed(format byte, body []byte) []byte {
	b := append([]byte{'G', 'S', 'N', 'A', 'P', format}, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestCheckpointRoundTrip: a binary checkpoint decodes to the snapshot it
// was written from — written as JSON, the bytes Write gives — in fewer
// bytes than the JSON and than its own body in the clear, which is format
// 1 and decodes to the same snapshot.
func TestCheckpointRoundTrip(t *testing.T) {
	for name, s := range map[string]*core.Store{"influenza": influenzaStore(t), "neuro": neuroStore(t)} {
		var js, bin bytes.Buffer
		if err := persist.Write(s, &js); err != nil {
			t.Fatal(err)
		}
		if err := writeCheckpoint(s, &bin); err != nil {
			t.Fatal(err)
		}
		plain := sealed(1, plainBody(t, bin.Bytes()))
		for form, file := range map[string][]byte{"format 2": bin.Bytes(), "format 1": plain} {
			snap, err := persist.Decode(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("%s, %s: %v", name, form, err)
			}
			var again bytes.Buffer
			if err := persist.WriteSnapshot(snap, &again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), js.Bytes()) {
				t.Fatalf("%s: the %s checkpoint decodes to a different snapshot", name, form)
			}
		}
		if bin.Len() >= len(plain) || len(plain) >= js.Len() {
			t.Errorf("%s: checkpoint of %d bytes, %d in the clear, for %d of JSON", name, bin.Len(), len(plain), js.Len())
		}
	}
}

// TestCheckpointsConcurrently: checkpoints written at once from several
// goroutines, which take turns with the one spare compressor and make
// their own when it is taken, are each byte for byte the checkpoint of
// the same store written alone.
func TestCheckpointsConcurrently(t *testing.T) {
	stores := []*core.Store{influenzaStore(t), neuroStore(t)}
	want := make([][]byte, len(stores))
	for i, s := range stores {
		var b bytes.Buffer
		if err := writeCheckpoint(s, &b); err != nil {
			t.Fatal(err)
		}
		want[i] = b.Bytes()
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 4 {
				i := (g + r) % len(stores)
				var b bytes.Buffer
				if err := writeCheckpoint(stores[i], &b); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b.Bytes(), want[i]) {
					t.Errorf("checkpoint %d, written beside others, differs from the one written alone", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeLimited: a checkpoint whose body inflates past the cap
// ReadOps was given is refused with ErrInflateLimit, one that inflates to
// the cap exactly loads, and the cap leaves the JSON form and a format-1
// body alone.
func TestDecodeLimited(t *testing.T) {
	s := neuroStore(t)
	var bin, js bytes.Buffer
	if err := writeCheckpoint(s, &bin); err != nil {
		t.Fatal(err)
	}
	if err := persist.Write(s, &js); err != nil {
		t.Fatal(err)
	}
	n := int64(len(plainBody(t, bin.Bytes())))
	if _, err := persist.Load(persist.ReadOps(bytes.NewReader(bin.Bytes()), n-1)); !errors.Is(err, persist.ErrInflateLimit) {
		t.Fatalf("a body of %d bytes under a cap of %d: %v, want ErrInflateLimit", n, n-1, err)
	}
	for form, file := range map[string][]byte{
		"format 2 at the cap": bin.Bytes(),
		"format 1":            sealed(1, plainBody(t, bin.Bytes())),
		"JSON":                js.Bytes(),
	} {
		if _, err := persist.Load(persist.ReadOps(bytes.NewReader(file), n)); err != nil {
			t.Errorf("%s: %v", form, err)
		}
	}
	bomb := sealed(2, deflated(t, make([]byte, 1<<20)))
	if _, err := persist.Load(persist.ReadOps(bytes.NewReader(bomb), n)); !errors.Is(err, persist.ErrInflateLimit) {
		t.Fatalf("a %d-byte stream of zeros: %v, want ErrInflateLimit", len(bomb), err)
	}
}

// deflated is body as one raw DEFLATE stream.
func deflated(t testing.TB, body []byte) []byte {
	t.Helper()
	var z bytes.Buffer
	zw, err := flate.NewWriter(&z, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(body)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
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
