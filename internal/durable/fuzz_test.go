package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// FuzzOpEnvelope hammers the WAL replay path with arbitrary bytes: a
// corrupt or hand-edited record, binary or JSON, must produce an error,
// never a panic — Open of a damaged directory has to fail cleanly, not
// crash the server. The seed corpus is every record a real scenario run
// logs, inflated to the binary form and as JSON, so the fuzzer starts
// from valid records and mutates inward (FuzzCompressedRecords covers the
// compressed form).
func FuzzOpEnvelope(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 7, Images: 3, Ops: 60})
	if err := workload.ApplyOps(s.Apply, ops); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	var logged []record
	_, decoded := walPayloads(f, dir)
	for _, raw := range decoded {
		f.Add(raw)
		rec, err := decodeRecord(raw)
		if err != nil {
			f.Fatal(err)
		}
		logged = append(logged, rec)
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
		_ = fresh.Core().Batch(func(x *core.Tx) error { return fresh.replayRecord(x, new(inflater), data) })
	})
}

// FuzzCompressedRecords replays a valid log of compressed records and
// then arbitrary record bytes behind it, a sequence of [uvarint
// length][payload]: replay refuses or applies each, and never panics. A
// compressed record is accepted only at its declared length, and
// inflating one allocates within a bound set by that length, not by what
// the chunk would inflate to; the seeds include a deflate bomb.
func FuzzCompressedRecords(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactThreshold: -1})
	if err != nil {
		f.Fatal(err)
	}
	ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 11, Images: 2, Ops: 40})
	if err := workload.ApplyOps(s.Apply, ops); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	logged, decoded := walPayloads(f, dir)
	const k = 30
	prefix := logged[:k]
	tail := func(records ...[]byte) []byte {
		var b []byte
		for _, r := range records {
			b = append(binary.AppendUvarint(b, uint64(len(r))), r...)
		}
		return b
	}
	bomb := deflateBomb(100, 1<<20)
	f.Add(tail(logged[k:]...))
	f.Add(tail(decoded[k:]...))
	f.Add(tail(logged[k+1])) // its back-references land on the wrong bytes
	f.Add(tail(logged[k][:len(logged[k])/2]))
	f.Add(tail(bomb))
	f.Add(tail(bomb, logged[k]))
	f.Add(tail(deflateBomb(maxRecordSize, 64<<10)))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &Store{}
		st.core.Store(core.NewStore())
		var in inflater
		_ = st.Core().Batch(func(x *core.Tx) error {
			for _, p := range prefix {
				if err := st.replayRecord(x, &in, p); err != nil {
					return fmt.Errorf("the valid prefix: %w", err)
				}
			}
			for len(data) > 0 {
				n, w := binary.Uvarint(data)
				if w <= 0 || n > uint64(len(data)-w) {
					return nil
				}
				p := data[w : w+int(n)]
				data = data[w+int(n):]
				checkInflate(t, in.dict(), p)
				if err := st.replayRecord(x, &in, p); err != nil {
					return err
				}
			}
			return nil
		})
		if st.seq < k {
			t.Fatalf("the valid prefix replays to seq %d", st.seq)
		}
	})
}

// checkInflate inflates p, a compressed record, over a copy of window: an
// accepted record is its declared length, and inflating allocates at most
// a fixed allowance plus a few times the record and its declared length.
func checkInflate(t *testing.T, window, p []byte) {
	if len(p) == 0 || p[0] != recordCompressed {
		return
	}
	declared, w := binary.Uvarint(p[1:])
	if w <= 0 || declared > maxRecordSize {
		return
	}
	probe := inflater{window: append([]byte(nil), window...)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := probe.decode(p)
	runtime.ReadMemStats(&after)
	if err == nil && uint64(len(out)) != declared {
		t.Fatalf("accepted %d inflated bytes, declared %d", len(out), declared)
	}
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, 512<<10+2*uint64(len(p))+4*(declared+1); alloc > bound {
		t.Fatalf("inflating a record of %d bytes declaring %d allocated %d bytes", len(p), declared, alloc)
	}
}
