package shard_test

// The differential property test: one deterministic op stream, applied
// serially to an unsharded in-memory store and to sharded stores of
// 1..4 shards, must produce byte-identical merged exports — same IDs,
// same derived facts, same provenance — plus identical stats and search
// answers. This is the exactness contract for the supported workload
// class (each annotation's marks within one routing domain).

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

func exportJSON(t *testing.T, snap *persist.Snapshot) []byte {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestShardedDifferentialExport(t *testing.T) {
	scenarios := []struct {
		name string
		ops  []workload.RecoveryOp
	}{
		{"recovery", workload.RecoveryScenario(workload.DefaultRecovery)},
		{"sharded-spread", workload.ShardedScenario(workload.RecoveryConfig{Seed: 7, Images: 8, Ops: 350}, 4)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := core.NewStore()
			if err := workload.ApplyOps(workload.AsSink(want), sc.ops); err != nil {
				t.Fatalf("unsharded apply: %v", err)
			}
			wantSnap, err := persist.Export(want)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := exportJSON(t, wantSnap)

			for n := 1; n <= 4; n++ {
				s := shard.New(n)
				if err := workload.ApplyOps(s, sc.ops); err != nil {
					t.Fatalf("n=%d sharded apply: %v", n, err)
				}
				gotSnap, err := s.Export()
				if err != nil {
					t.Fatalf("n=%d export: %v", n, err)
				}
				if gotJSON := exportJSON(t, gotSnap); !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("n=%d merged export diverged from unsharded store", n)
					diffSnapshots(t, gotSnap, wantSnap)
					continue
				}
				if g, w := s.Stats(), want.Stats(); g != w {
					t.Errorf("n=%d stats diverged:\n got %+v\nwant %+v", n, g, w)
				}
				if g, w := s.DerivedAll(), want.DerivedAll(); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d derived facts diverged: %d vs %d", n, len(g), len(w))
				}
				for _, ann := range want.Annotations() {
					target := agraph.ContentRoot(ann.ID)
					g := s.DerivedTargeting(target)
					w := want.DerivedTargeting(target)
					if !reflect.DeepEqual(g, w) {
						t.Errorf("n=%d provenance of annotation %d diverged: got %v want %v",
							n, ann.ID, g, w)
					}
				}
				if g, w := annIDs(s.SearchKeyword("protein.TP53", true)), annIDs(want.SearchKeyword("protein.TP53", true)); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d keyword search diverged: got %v want %v", n, g, w)
				}
				gc, err := s.SearchContents("contains(/annotation/body, 'Cerebellar')")
				if err != nil {
					t.Fatalf("n=%d contents search: %v", n, err)
				}
				wc, err := want.View().SearchContents("contains(/annotation/body, 'Cerebellar')")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(annIDs(gc), annIDs(wc)) {
					t.Errorf("n=%d contents search diverged: got %v want %v", n, annIDs(gc), annIDs(wc))
				}
				if g, w := annIDs(s.Annotations()), annIDs(want.Annotations()); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d annotation list diverged", n)
				}

				// Batch ≡ serial under partitioning: restoring the serial
				// store's export loads each shard's partition as one
				// writer session, and must land on the same state.
				restored := shard.New(n)
				if err := restored.Restore(wantSnap); err != nil {
					t.Fatalf("n=%d restore: %v", n, err)
				}
				gotSnap, err = restored.Export()
				if err != nil {
					t.Fatalf("n=%d restored export: %v", n, err)
				}
				if !bytes.Equal(exportJSON(t, gotSnap), wantJSON) {
					t.Errorf("n=%d batch-loaded partitions diverged from the serial store", n)
					diffSnapshots(t, gotSnap, wantSnap)
				}
				if g, w := restored.Stats(), want.Stats(); g != w {
					t.Errorf("n=%d restored stats diverged:\n got %+v\nwant %+v", n, g, w)
				}
				if g, w := restored.DerivedAll(), want.DerivedAll(); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d restored derived facts diverged: %d vs %d", n, len(g), len(w))
				}
			}
		})
	}
}

// TestShardedRestoreRoundTrip: a merged export restored into a fresh
// sharded store (any shard count) must export identically — the
// partition function is an inverse of the merge.
func TestShardedRestoreRoundTrip(t *testing.T) {
	ops := workload.ShardedScenario(workload.RecoveryConfig{Seed: 11, Images: 6, Ops: 250}, 3)
	src := shard.New(3)
	if err := workload.ApplyOps(src, ops); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := exportJSON(t, snap)
	for n := 1; n <= 4; n++ {
		dst := shard.New(n)
		if err := dst.Restore(snap); err != nil {
			t.Fatalf("n=%d restore: %v", n, err)
		}
		got, err := dst.Export()
		if err != nil {
			t.Fatalf("n=%d re-export: %v", n, err)
		}
		if !bytes.Equal(exportJSON(t, got), wantJSON) {
			t.Errorf("n=%d restore round-trip diverged", n)
			diffSnapshots(t, got, snap)
		}
		// Restored stores must keep allocating fresh IDs above the
		// snapshot's counters.
		b := dst.NewAnnotation().Creator("x").Date("2008-01-01").Body("post-restore probe")
		b.OntologyRef("nif", "cerebellum")
		ann, err := dst.Commit(b)
		if err != nil {
			t.Fatalf("n=%d post-restore commit: %v", n, err)
		}
		if ann.ID < snap.NextAnn {
			t.Errorf("n=%d post-restore annotation ID %d below counter %d", n, ann.ID, snap.NextAnn)
		}
	}
}

func diffSnapshots(t *testing.T, got, want *persist.Snapshot) {
	t.Helper()
	report := func(name string, g, w any) {
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Logf("section %s diverged:\n got %.2000s\nwant %.2000s", name, gj, wj)
		}
	}
	report("Ontologies", got.Ontologies, want.Ontologies)
	report("Rules", got.Rules, want.Rules)
	report("Systems", got.Systems, want.Systems)
	report("Sequences", got.Sequences, want.Sequences)
	report("Alignments", got.Alignments, want.Alignments)
	report("Trees", got.Trees, want.Trees)
	report("Graphs", got.Graphs, want.Graphs)
	report("Images", got.Images, want.Images)
	report("RecordTables", got.RecordTables, want.RecordTables)
	report("Annotations", got.Annotations, want.Annotations)
	report("NextAnn", got.NextAnn, want.NextAnn)
	report("NextRef", got.NextRef, want.NextRef)
}

func annIDs(anns []*core.Annotation) []uint64 {
	ids := make([]uint64, 0, len(anns))
	for _, a := range anns {
		ids = append(ids, a.ID)
	}
	return ids
}
