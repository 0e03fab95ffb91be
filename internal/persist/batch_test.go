package persist_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
)

// commitSerial is the load path LoadWith replaced — one full commit, one
// published view, per annotation — kept as the oracle the batch load must
// match byte for byte.
func commitSerial(s *core.Store, anns []persist.AnnotationDump) error {
	for _, ad := range anns {
		if err := persist.ApplyAnnotation(s, ad); err != nil {
			return err
		}
	}
	return nil
}

// assertBatchEqualsSerial loads snap both ways and requires identical
// exports, stats and ID counters.
func assertBatchEqualsSerial(t *testing.T, snap *persist.Snapshot) *core.Store {
	t.Helper()
	serial, err := persist.LoadWithCommit(snap, core.StoreOptions{}, nil, commitSerial)
	if err != nil {
		t.Fatalf("serial load: %v", err)
	}
	batch, err := persist.Load(snap)
	if err != nil {
		t.Fatalf("batch load: %v", err)
	}
	var want, got bytes.Buffer
	if err := persist.Write(serial, &want); err != nil {
		t.Fatal(err)
	}
	if err := persist.Write(batch, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("batch-loaded export differs from serial load (%d vs %d bytes)", got.Len(), want.Len())
	}
	if g, w := batch.Stats(), serial.Stats(); g != w {
		t.Fatalf("stats differ:\n batch %+v\nserial %+v", g, w)
	}
	// The epoch counts mutations, however many publishes carried them.
	if g, w := batch.View().Epoch(), serial.View().Epoch(); g != w {
		t.Fatalf("epoch: batch %d, serial %d", g, w)
	}
	return batch
}

func exportOf(t *testing.T, s *core.Store) *persist.Snapshot {
	t.Helper()
	snap, err := persist.Export(s)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestBatchLoadEqualsSerialLoad(t *testing.T) {
	t.Run("influenza", func(t *testing.T) {
		assertBatchEqualsSerial(t, exportOf(t, influenzaStore(t)))
	})
	t.Run("neuro", func(t *testing.T) {
		assertBatchEqualsSerial(t, exportOf(t, neuroStore(t)))
	})
	t.Run("id-gaps", func(t *testing.T) {
		s := influenzaStore(t)
		for i, id := range s.AnnotationIDs() {
			if i%3 == 1 {
				if err := s.DeleteAnnotation(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := exportOf(t, s)
		loaded := assertBatchEqualsSerial(t, snap)
		if a, r := loaded.IDCounters(); a != snap.NextAnn || r != snap.NextRef {
			t.Fatalf("counters (%d, %d), want (%d, %d)", a, r, snap.NextAnn, snap.NextRef)
		}
	})
	t.Run("shared-mark-in-one-batch", func(t *testing.T) {
		s := influenzaStore(t)
		// Two fresh annotations on one new mark: the second must resolve
		// the referent the first created earlier in the same session.
		var shared uint64
		for i := 0; i < 2; i++ {
			m, err := s.MarkDomainInterval("segment2", interval.Interval{Lo: 7, Hi: 19})
			if err != nil {
				t.Fatal(err)
			}
			ann, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").Body("shared").Refer(m))
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && ann.ReferentIDs[0] != shared {
				t.Fatalf("marks did not dedup: %d vs %d", ann.ReferentIDs[0], shared)
			}
			shared = ann.ReferentIDs[0]
		}
		assertBatchEqualsSerial(t, exportOf(t, s))
	})
	t.Run("v1-without-ids", func(t *testing.T) {
		snap := exportOf(t, influenzaStore(t))
		snap.Version, snap.NextAnn, snap.NextRef = 1, 0, 0
		for i := range snap.Annotations {
			snap.Annotations[i].ID = 0
			for j := range snap.Annotations[i].Referents {
				snap.Annotations[i].Referents[j].ID = 0
			}
		}
		assertBatchEqualsSerial(t, snap)
	})
}

// TestBatchFailureKeepsPrefix: a failing annotation ends the batch with
// the annotations before it published, the error returned, and the store
// still serving reads and accepting commits.
func TestBatchFailureKeepsPrefix(t *testing.T) {
	snap := exportOf(t, influenzaStore(t))
	const bad = 20
	anns := append([]persist.AnnotationDump(nil), snap.Annotations...)
	anns[bad].ID = anns[0].ID // pinned ID collides with an earlier op of the batch
	load := func(commit func(*core.Store, []persist.AnnotationDump) error) (*core.Store, error) {
		empty := *snap
		empty.Annotations, empty.NextAnn, empty.NextRef = nil, 0, 0
		s, err := persist.Load(&empty)
		if err != nil {
			t.Fatal(err)
		}
		return s, commit(s, anns)
	}
	batch, err := load(persist.CommitBatch)
	if err == nil {
		t.Fatal("colliding pinned ID accepted")
	}
	serial, serr := load(commitSerial)
	if serr == nil {
		t.Fatal("oracle accepted the colliding pinned ID")
	}
	if n := batch.Stats().Annotations; n != bad {
		t.Fatalf("%d annotations visible after failure at %d", n, bad)
	}
	if g, w := mustJSON(t, exportOf(t, batch)), mustJSON(t, exportOf(t, serial)); !bytes.Equal(g, w) {
		t.Fatal("prefix left by the failed batch differs from the serial prefix")
	}
	if got := len(batch.SearchKeyword("protease", true)); got != len(serial.SearchKeyword("protease", true)) {
		t.Fatalf("keyword search after failed batch: %d hits", got)
	}
	m, err := batch.MarkDomainInterval("segment1", interval.Interval{Lo: 1, Hi: 5})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := batch.Commit(batch.NewAnnotation().Creator("u").Date("2008-01-01").Body("after").Refer(m))
	if err != nil {
		t.Fatalf("commit after failed batch: %v", err)
	}
	if _, err := batch.Annotation(ann.ID); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, snap *persist.Snapshot) []byte {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadRejectsHostileIDs: a snapshot whose pinned IDs or counters pass
// core.MaxID is refused with an error (never a panic or a giant
// allocation) — the path POST /api/restore, -snapshot and durable.Open
// all take.
func TestLoadRejectsHostileIDs(t *testing.T) {
	for _, id := range []uint64{1 << 62, 1 << 40, core.MaxID + 1} {
		snap := exportOf(t, influenzaStore(t))
		snap.Annotations[3].ID = id
		if _, err := persist.Load(snap); err == nil {
			t.Errorf("annotation ID %d accepted", id)
		}
		snap = exportOf(t, influenzaStore(t))
		snap.Annotations[3].Referents[0].ID = id
		if _, err := persist.Load(snap); err == nil {
			t.Errorf("referent ID %d accepted", id)
		}
		snap = exportOf(t, influenzaStore(t))
		snap.NextRef = id
		if _, err := persist.Load(snap); err == nil {
			t.Errorf("counter %d accepted", id)
		}
	}
}
