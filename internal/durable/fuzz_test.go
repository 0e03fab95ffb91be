package durable

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/wal"
	"graphitti/internal/workload"
)

// FuzzOpEnvelope hammers the WAL replay path with arbitrary bytes: a
// corrupt or hand-edited record, binary or JSON, must produce an error,
// never a panic — Open of a damaged directory has to fail cleanly, not
// crash the server. The seed corpus is every record a real scenario run
// logs, in both forms, so the fuzzer starts from valid records and
// mutates inward.
func FuzzOpEnvelope(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 7, Images: 3, Ops: 60})
	if err := workload.ApplyOps(s, ops); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	var logged []record
	if _, err := wal.Scan(filepath.Join(dir, logFile), func(payload []byte) error {
		f.Add(append([]byte(nil), payload...))
		rec, err := decodeRecord(payload)
		logged = append(logged, rec)
		return err
	}); err != nil {
		f.Fatal(err)
	}
	// Adversarial seeds: envelopes that are valid JSON but name no dump,
	// or whose dumps are structurally hollow.
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	for kind := 0; kind < 16; kind++ {
		f.Add([]byte(`{"seq":1,"kind":` + string(rune('0'+kind%10)) + `}`))
		b, _ := json.Marshal(map[string]any{"seq": 1, "kind": kind, "annotation": map[string]any{}})
		f.Add(b)
		b, _ = json.Marshal(map[string]any{"seq": 1, "kind": kind, "image": map[string]any{}, "row": []any{map[string]any{}}})
		f.Add(b)
	}
	// Hostile pinned IDs: a well-formed commit whose annotation or referent
	// ID would size the dense ID tables (an index panic at 1<<62, a 32 GiB
	// allocation at 1<<40) unless core refuses it above core.MaxID.
	var hostile []record
	for _, id := range []uint64{1 << 62, 1 << 40} {
		for _, pin := range [][2]uint64{{id, 1}, {1, id}} {
			rec := record{Seq: 1, Op: persist.Op{Kind: core.OpCommitAnnotation,
				Annotation: &persist.AnnotationDump{
					ID: pin[0],
					DC: map[string][]string{"creator": {"u"}, "date": {"2008-01-01"}},
					Referents: []persist.ReferentDump{{ID: pin[1], ObjectType: "dna",
						ObjectID: "x", Domain: "d", Lo: 1, Hi: 5}},
				}}}
			b, _ := json.Marshal(rec)
			f.Add(b)
			hostile = append(hostile, rec)
		}
	}
	// The same records in the other form: the scenario's as JSON, the
	// hostile pins and a hollow record of every kind as binary.
	for _, rec := range logged {
		b, _ := json.Marshal(rec)
		f.Add(b)
	}
	for _, rec := range hostile {
		f.Add(encodeRecord(rec.Seq, rec.Op))
	}
	for kind := 0; kind < 16; kind++ {
		f.Add([]byte{recordBinary, 1, byte(kind)})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Replay against an empty store and against one with prior state:
		// panics can hide behind lookups that only exist in one of them.
		if rec, err := decodeRecord(data); err == nil {
			_ = core.NewStore().Batch(rec.Apply)
		}

		fresh := &Store{}
		fresh.core.Store(core.NewStore())
		_ = fresh.Core().Batch(func(x *core.Tx) error { return fresh.replayRecord(x, data) })
	})
}
