package persist_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
)

// v1Snapshot is a format-1 snapshot written by hand: no annotation or
// referent IDs, no counters — the loader assigns IDs densely.
const v1Snapshot = `{"version":1,
"ontologies":[{"name":"go","terms":[{"id":"enzyme","name":"enzyme"},{"id":"protease","name":"protease"}],"edges":[{"from":"protease","to":"enzyme","rel":"is_a"}]}],
"sequences":[{"id":"seg1","kind":0,"domain":"segment1","offset":0,"residues":"ACGTACGTACGTACGT"}],
"recordTables":[{"name":"findings","key":"id","columns":[{"name":"id","type":2}],"rows":[[{"t":"s","s":"f-1"}]]}],
"annotations":[{"dc":{"creator":["gupta"],"date":["2007-11-20"]},"body":"cleavage site","tags":[{"name":"status","value":"new"}],
"referents":[{"kind":0,"objectType":"dna","objectId":"seg1","domain":"segment1","lo":2,"hi":9}],"terms":[{"ontology":"go","term":"protease"}]}],
"rules":[{"id":"ov","edge":"overlap","domain":"segment1"}]}`

// FuzzSnapshotLoad hammers the snapshot loader — the path -snapshot,
// POST /api/restore, graphitti -load and every durable.Open take, a
// stream of ops (ReadOps) into one loader — with arbitrary bytes, seeded
// with both forms, JSON and the binary checkpoint, the latter in both
// formats, deflated and in the clear, and with JSON whose keys come in
// another order, twice, in another letter case or unknown. The load must
// refuse or load, never panic, and agree with the reference, the decode
// of the whole input into a Snapshot that loads took before they streamed
// (DecodeWhole): what the stream loads, the reference loads to a store
// that writes the same bytes; what the reference loads, the stream loads
// too, unless it is one of the two inputs a stream refuses on purpose
// (streamRefuses). Whatever loads exports to a snapshot that loads to the
// same export.
func FuzzSnapshotLoad(f *testing.F) {
	for _, s := range []*core.Store{influenzaStore(f), neuroStore(f)} {
		var buf bytes.Buffer
		if err := persist.Write(s, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(v1Snapshot))
	var checkpoint bytes.Buffer
	if err := writeCheckpoint(neuroStore(f), &checkpoint); err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint.Bytes())
	f.Add(sealed(1, plainBody(f, checkpoint.Bytes())))
	for _, seed := range keyOrderSeeds {
		f.Add([]byte(seed.doc))
	}
	f.Add(v1Export(f, influenzaStore(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := persist.Read(bytes.NewReader(data))
		ref, refErr := referenceLoad(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("the stream loads what the reference refuses (%v)", refErr)
		case err != nil && refErr == nil && !streamRefuses(data):
			t.Fatalf("the stream refuses what the reference loads: %v", err)
		case err != nil:
			return
		}
		var first, second, want bytes.Buffer
		if err := persist.Write(s, &first); err != nil {
			t.Fatalf("a loaded snapshot does not export: %v", err)
		}
		if err := persist.Write(ref, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), want.Bytes()) {
			t.Fatalf("the stream and the reference load different stores:\nstream    %s\nreference %s", first.Bytes(), want.Bytes())
		}
		again, err := persist.Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("the export of a loaded snapshot does not load: %v\n%s", err, first.Bytes())
		}
		if err := persist.Write(again, &second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export changed across a reload:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}

// referenceLoad is the reference load: the whole input decoded into a
// Snapshot, then loaded.
func referenceLoad(data []byte) (*core.Store, error) {
	snap, err := persist.DecodeWhole(data)
	if err != nil {
		return nil, err
	}
	return persist.Load(snap)
}

// keyOrderSeeds are v1Snapshot's keys in another order (the tail first,
// which streams), an object section after the annotations and the
// annotations twice (which a stream refuses, naming the key), the keys
// in another letter case and unknown keys (which it takes as a decode of
// the whole document does). Each loads with the reference. (A section
// after annotations that mark its objects fails the stream earlier: the
// first of them is refused as marking an object that is not there.)
var keyOrderSeeds = []struct{ doc, refused string }{
	{`{"rules":[{"id":"ov","edge":"overlap","domain":"segment1"}],"nextAnn":5,"nextRef":5,"version":1,` + v1Objects + `,` + v1Annotations + `}`, ""},
	{`{"version":1,` + v1Ontologies + `,` + v1Sequences + `,` + v1Annotations + `,` + v1Tables + `}`, `key "recordTables" comes after the annotations`},
	{`{"version":1,` + v1Objects + `,` + v1Annotations + `,` + v1Annotations + `}`, `key "annotations" comes twice`},
	{`{"VERSION":1,` + v1Objects + `,"Annotations"` + strings.TrimPrefix(v1Annotations, `"annotations"`) + `}`, ""},
	{`{"version":1,"comment":{"by":[1e999,{"x":null}],"ok":true},` + v1Objects + `,` + v1Annotations + `,"extra":"z"}`, ""},
}

// v1Ontologies, v1Sequences, v1Tables and v1Annotations are v1Snapshot's
// sections, as keys and values; v1Objects is the first three.
const (
	v1Ontologies  = `"ontologies":[{"name":"go","terms":[{"id":"enzyme","name":"enzyme"},{"id":"protease","name":"protease"}],"edges":[{"from":"protease","to":"enzyme","rel":"is_a"}]}]`
	v1Sequences   = `"sequences":[{"id":"seg1","kind":0,"domain":"segment1","offset":0,"residues":"ACGTACGTACGTACGT"}]`
	v1Tables      = `"recordTables":[{"name":"findings","key":"id","columns":[{"name":"id","type":2}],"rows":[[{"t":"s","s":"f-1"}]]}]`
	v1Objects     = v1Ontologies + ",\n" + v1Sequences + ",\n" + v1Tables
	v1Annotations = `"annotations":[{"dc":{"creator":["gupta"],"date":["2007-11-20"]},"body":"cleavage site","tags":[{"name":"status","value":"new"}],
"referents":[{"kind":0,"objectType":"dna","objectId":"seg1","domain":"segment1","lo":2,"hi":9}],"terms":[{"ontology":"go","term":"protease"}]}]`
)

// TestJSONKeyOrder: the JSON form streams whatever the order of its keys,
// as long as the version and the object sections come before the
// annotations and no key comes twice; those two are refused with an
// error naming the key. The reference, a decode of the whole document,
// loads every one of these.
func TestJSONKeyOrder(t *testing.T) {
	for _, c := range keyOrderSeeds {
		if _, err := referenceLoad([]byte(c.doc)); err != nil {
			t.Fatalf("the reference refuses %.80s…: %v", c.doc, err)
		}
		_, err := persist.Read(strings.NewReader(c.doc))
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%.80s…: %v", c.doc, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%.80s…: %v, want an error saying %s", c.doc, err, c.refused)
		case c.refused != "" && !streamRefuses([]byte(c.doc)):
			t.Errorf("%.80s…: refused, and streamRefuses does not say so", c.doc)
		}
	}
}

// v1Export is the export of s as a version-1 writer wrote it: no
// annotation or referent IDs, no ID counters.
func v1Export(t testing.TB, s *core.Store) []byte {
	snap, err := persist.Export(s)
	if err != nil {
		t.Fatal(err)
	}
	snap.Version, snap.NextAnn, snap.NextRef = 1, 0, 0
	for i := range snap.Annotations {
		snap.Annotations[i].ID = 0
		for j := range snap.Annotations[i].Referents {
			snap.Annotations[i].Referents[j].ID = 0
		}
	}
	var b bytes.Buffer
	if err := persist.WriteSnapshot(snap, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// streamRefuses reports whether data is JSON that a decode of the whole
// document takes and a stream refuses on purpose: a top-level key of the
// snapshot that comes twice (matched as encoding/json matches a struct's
// fields, case-insensitively), or the version or an object section after
// the annotations.
func streamRefuses(data []byte) bool {
	keys := []string{"version", "ontologies", "systems", "sequences", "alignments", "trees", "graphs",
		"images", "recordTables", "annotations", "rules", "nextAnn", "nextRef"}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[int]bool{}
	annotations := slices.Index(keys, "annotations")
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		i := slices.IndexFunc(keys, func(k string) bool { return strings.EqualFold(k, key) })
		if i >= 0 && (seen[i] || i < annotations && seen[annotations]) {
			return true
		}
		seen[i] = true
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return false
}
