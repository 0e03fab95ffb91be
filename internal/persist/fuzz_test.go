package persist_test

import (
	"bytes"
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
// POST /api/restore and every durable.Open take — with arbitrary bytes:
// Decode and LoadWith must refuse or load, never panic, and whatever
// loads must export to a snapshot that loads to the same export.
func FuzzSnapshotLoad(f *testing.F) {
	for _, s := range []*core.Store{influenzaStore(f), neuroStore(f)} {
		var buf bytes.Buffer
		if err := persist.Write(s, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(v1Snapshot))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := persist.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := persist.LoadWith(snap, core.StoreOptions{})
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := persist.Write(s, &first); err != nil {
			t.Fatalf("a loaded snapshot does not export: %v", err)
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
