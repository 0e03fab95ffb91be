package persist_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
)

// loadSerial is the oracle the one-session load must match byte for
// byte: every op the snapshot yields applied as its own session, one
// published view each, then the rules as one op and the counters as one.
func loadSerial(t *testing.T, snap *persist.Snapshot) *core.Store {
	t.Helper()
	s := core.NewStore()
	for op := range snap.Ops {
		if err := s.Batch(op.Apply); err != nil {
			t.Fatalf("serial load: %s: %v", op.Kind, err)
		}
	}
	if len(snap.Rules) > 0 {
		rules := make([]prop.Rule, len(snap.Rules))
		for i, rd := range snap.Rules {
			rules[i] = persist.RestoreRule(rd)
		}
		if err := s.Batch(func(x *core.Tx) error { return prop.AddRules(x, rules...) }); err != nil {
			t.Fatalf("serial load: rules: %v", err)
		}
	}
	if snap.NextAnn != 0 || snap.NextRef != 0 {
		if err := s.Batch(func(x *core.Tx) error { return x.RestoreIDCounters(snap.NextAnn, snap.NextRef) }); err != nil {
			t.Fatalf("serial load: counters: %v", err)
		}
	}
	return s
}

// assertSameState requires identical exports, stats, derived tables and
// epochs: the epoch counts ops, however many publishes carried them.
func assertSameState(t *testing.T, got, want *core.Store) {
	t.Helper()
	var g, w bytes.Buffer
	if err := persist.Write(want, &w); err != nil {
		t.Fatal(err)
	}
	if err := persist.Write(got, &g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("export differs from the serial oracle's (%d vs %d bytes)", g.Len(), w.Len())
	}
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		t.Fatalf("stats differ:\n   got %+v\nserial %+v", gs, ws)
	}
	if gd, wd := slices.Collect(got.View().DerivedEach), slices.Collect(want.View().DerivedEach); !reflect.DeepEqual(gd, wd) {
		t.Fatalf("derived tables differ: %d facts, serial %d", len(gd), len(wd))
	}
	if ge, we := got.View().Epoch(), want.View().Epoch(); ge != we {
		t.Fatalf("epoch %d, serial %d", ge, we)
	}
}

// assertBatchEqualsSerial loads snap both ways and requires the same
// state.
func assertBatchEqualsSerial(t *testing.T, snap *persist.Snapshot) *core.Store {
	t.Helper()
	serial := loadSerial(t, snap)
	batch, err := persist.Load(snap)
	if err != nil {
		t.Fatalf("batch load: %v", err)
	}
	assertSameState(t, batch, serial)
	return batch
}

func exportOf(t testing.TB, s *core.Store) *persist.Snapshot {
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
		for i, id := range annotationIDs(s.View()) {
			if i%3 == 1 {
				if err := s.DeleteAnnotation(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := exportOf(t, s)
		loaded := assertBatchEqualsSerial(t, snap)
		if a, r := loaded.View().IDCounters(); a != snap.NextAnn || r != snap.NextRef {
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
			if i == 1 && slices.Collect(ann.ReferentIDs)[0] != shared {
				t.Fatalf("marks did not dedup: %d vs %d", slices.Collect(ann.ReferentIDs)[0], shared)
			}
			shared = slices.Collect(ann.ReferentIDs)[0]
		}
		assertBatchEqualsSerial(t, exportOf(t, s))
	})
	t.Run("rules", func(t *testing.T) {
		s := neuroStore(t)
		if err := prop.Attach(s).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap}); err != nil {
			t.Fatal(err)
		}
		if len(slices.Collect(assertBatchEqualsSerial(t, exportOf(t, s)).View().DerivedEach)) == 0 {
			t.Fatal("the loaded rule derives nothing")
		}
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

// TestRuleAttachedBatchEqualsSerial: an op stream with rules attached
// from its start — so every commit and delete runs the delta path, every
// image registration the co-registration recompute, and one rule is
// deleted midway — leaves the same state applied as one Batch as applied
// one session per op. The batch computes each delta between two sealed
// states of its own session; the oracle between two published views.
func TestRuleAttachedBatchEqualsSerial(t *testing.T) {
	for name, snap := range map[string]*persist.Snapshot{
		"influenza": exportOf(t, influenzaStore(t)),
		"neuro":     exportOf(t, neuroStore(t)),
	} {
		t.Run(name, func(t *testing.T) {
			var ops []persist.Op
			for _, r := range []prop.Rule{
				{ID: "closure", Edge: prop.EdgeOntologyClosure},
				{ID: "coreg", Edge: prop.EdgeCoRegistered},
				{ID: "overlap", Edge: prop.EdgeOverlap},
				{ID: "shared", Edge: prop.EdgeSharedReferent},
			} {
				d := persist.DumpRule(r)
				ops = append(ops, persist.Op{Kind: core.OpAddRule, Rule: &d})
			}
			for op := range snap.Ops {
				ops = append(ops, op)
			}
			for i, ad := range snap.Annotations {
				if i%3 == 1 {
					ops = append(ops, persist.Op{Kind: core.OpDeleteAnnotation, DeleteID: ad.ID})
				}
			}
			mid := len(ops) / 2
			ops = slices.Insert(ops, mid, persist.Op{Kind: core.OpDeleteRule, RuleID: "shared"})

			serial := core.NewStore()
			for _, op := range ops {
				if err := serial.Batch(op.Apply); err != nil {
					t.Fatalf("serial: %s: %v", op.Kind, err)
				}
			}
			if len(slices.Collect(serial.View().DerivedEach)) == 0 {
				t.Fatal("the stream derives nothing")
			}
			batch := core.NewStore()
			if err := batch.Batch(func(x *core.Tx) error {
				for _, op := range ops {
					if err := op.Apply(x); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			assertSameState(t, batch, serial)
		})
	}
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
	batch, err := load(func(s *core.Store, anns []persist.AnnotationDump) error {
		return s.Batch(func(x *core.Tx) error {
			for _, ad := range anns {
				if _, err := persist.ApplyAnnotation(x, ad, nil); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err == nil {
		t.Fatal("colliding pinned ID accepted")
	}
	serial, serr := load(func(s *core.Store, anns []persist.AnnotationDump) error {
		for _, ad := range anns {
			if err := s.Batch(func(x *core.Tx) (err error) {
				_, err = persist.ApplyAnnotation(x, ad, nil)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
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

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
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
