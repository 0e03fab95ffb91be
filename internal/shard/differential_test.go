package shard_test

// The differential property test: one deterministic op stream, applied
// serially to an unsharded in-memory store and to sharded stores of
// 1..4 shards, must produce byte-identical merged exports — same IDs,
// same derived facts, same provenance — plus identical stats and search
// answers. This is the exactness contract for the supported workload
// class (each annotation's marks within one routing domain).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/query"
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

// checkpoint is the checkpoint persist writes of a pinned view set.
func checkpoint(t *testing.T, views []*core.View, rules []prop.Rule) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := persist.WriteCheckpoint(views, rules, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
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
			wantCheckpoint := checkpoint(t, []*core.View{want.View()}, prop.RulesOf(want))

			for n := 1; n <= 4; n++ {
				s := shard.New(n)
				if err := workload.ApplyOps(shard.AsSink(s), sc.ops); err != nil {
					t.Fatalf("n=%d sharded apply: %v", n, err)
				}
				gotSnap, err := shard.Export(s)
				if err != nil {
					t.Fatalf("n=%d export: %v", n, err)
				}
				if gotJSON := exportJSON(t, gotSnap); !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("n=%d merged export diverged from unsharded store", n)
					diffSnapshots(t, gotSnap, wantSnap)
					continue
				}
				// The merged checkpoint is the one store's, byte for byte.
				if got := checkpoint(t, s.Views(), s.Rules()); !bytes.Equal(got, wantCheckpoint) {
					t.Errorf("n=%d merged checkpoint is %d bytes that differ from the %d of the unsharded store's",
						n, len(got), len(wantCheckpoint))
				}
				if g, w := s.Views().Stats(), want.Stats(); g != w {
					t.Errorf("n=%d stats diverged:\n got %+v\nwant %+v", n, g, w)
				}
				if g, w := s.Views().DerivedAll(), slices.Collect(want.View().DerivedEach); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d derived facts diverged: %d vs %d", n, len(g), len(w))
				}
				for _, ann := range want.Annotations() {
					target := agraph.ContentRoot(ann.ID)
					g := s.Views().DerivedTargeting(target)
					w := shard.Views{want.View()}.DerivedTargeting(target)
					if !reflect.DeepEqual(g, w) {
						t.Errorf("n=%d provenance of annotation %d diverged: got %v want %v",
							n, ann.ID, g, w)
					}
				}
				if g, w := annIDs(s.SearchKeyword("protein.TP53", true)), annIDs(want.SearchKeyword("protein.TP53", true)); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d keyword search diverged: got %v want %v", n, g, w)
				}
				gc, err := s.Views().SearchContentsCtx(context.Background(), "contains(/annotation/body, 'Cerebellar')")
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
				if g, w := annIDs(s.Views().Annotations()), annIDs(want.Annotations()); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d annotation list diverged", n)
				}

				// Batch ≡ serial under partitioning: restoring the serial
				// store's export loads each shard's partition as one
				// writer session, and must land on the same state.
				restored := shard.New(n)
				if err := restored.Restore(wantSnap); err != nil {
					t.Fatalf("n=%d restore: %v", n, err)
				}
				gotSnap, err = shard.Export(restored)
				if err != nil {
					t.Fatalf("n=%d restored export: %v", n, err)
				}
				if !bytes.Equal(exportJSON(t, gotSnap), wantJSON) {
					t.Errorf("n=%d batch-loaded partitions diverged from the serial store", n)
					diffSnapshots(t, gotSnap, wantSnap)
				}
				if g, w := restored.Views().Stats(), want.Stats(); g != w {
					t.Errorf("n=%d restored stats diverged:\n got %+v\nwant %+v", n, g, w)
				}
				if g, w := restored.Views().DerivedAll(), slices.Collect(want.View().DerivedEach); !reflect.DeepEqual(g, w) {
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
	if err := workload.ApplyOps(shard.AsSink(src), ops); err != nil {
		t.Fatal(err)
	}
	snap, err := shard.Export(src)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := exportJSON(t, snap)
	for n := 1; n <= 4; n++ {
		dst := shard.New(n)
		if err := dst.Restore(snap); err != nil {
			t.Fatalf("n=%d restore: %v", n, err)
		}
		got, err := shard.Export(dst)
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

// TestOneShardQueryIsTheStoresOwn: over one pipeline Query returns what
// the store's own processor returns — the planner's account included, and
// with a cap that one match of two annotation variables overshoots in
// annotations: the merge re-caps only what the shards together exceed.
func TestOneShardQueryIsTheStoresOwn(t *testing.T) {
	want := core.NewStore()
	registerSeq(t, workload.AsSink(want).Apply, "seq-0", "dom-0")
	for _, c := range []struct {
		body   string
		lo, hi int64
	}{{"alpha", 10, 20}, {"beta", 10, 20}, {"alpha gamma", 30, 40}} {
		m, err := want.MarkDomainInterval("dom-0", interval.Interval{Lo: c.lo, Hi: c.hi})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.Commit(want.NewAnnotation().Creator("t").Date("2008-01-01").Body(c.body).Refer(m)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := persist.Export(want)
	if err != nil {
		t.Fatal(err)
	}
	s := shard.New(1)
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	proc := query.NewProcessor(want)
	overshot := false
	for _, c := range []struct {
		src string
		max int
	}{
		{`select contents where { ?a isa annotation . }`, 0},
		{`select contents where { ?a isa annotation ; contains "alpha" . }`, 1},
		{`select contents where { ?a isa annotation ; contains "alpha" . ?b isa annotation ; contains "beta" . ?r isa referent . ?a annotates ?r . ?b annotates ?r . }`, 1},
		{`select referents where { ?a isa annotation . ?r isa referent . ?a annotates ?r . }`, 2},
		{`select graph where { ?a isa annotation . ?r isa referent . ?a annotates ?r . }`, 0},
	} {
		opts := query.DefaultOptions
		opts.MaxResults = c.max
		w, err := proc.ExecuteCtx(context.Background(), c.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		g, err := s.Views().Query(context.Background(), c.src, opts)
		if err != nil {
			t.Fatalf("%s: sharded: %v", c.src, err)
		}
		overshot = overshot || (c.max > 0 && len(w.Annotations) > c.max)
		if !reflect.DeepEqual(annIDs(g.Annotations), annIDs(w.Annotations)) ||
			len(g.Referents) != len(w.Referents) || len(g.Subgraphs) != len(w.Subgraphs) ||
			!reflect.DeepEqual(g.Matches, w.Matches) {
			t.Errorf("%s (max %d): %d/%d/%d/%d annotations/referents/subgraphs/matches, the store's own %d/%d/%d/%d",
				c.src, c.max, len(g.Annotations), len(g.Referents), len(g.Subgraphs), len(g.Matches),
				len(w.Annotations), len(w.Referents), len(w.Subgraphs), len(w.Matches))
		}
		g.Stats.LazyDomains = w.Stats.LazyDomains // a span attribute; the merge does not carry it
		if !reflect.DeepEqual(g.Stats, w.Stats) {
			t.Errorf("%s (max %d): planner account differs:\n got %+v\nwant %+v", c.src, c.max, g.Stats, w.Stats)
		}
	}
	if !overshot {
		t.Fatal("no capped query returned more annotations than its cap: the re-cap was never at stake")
	}
}

// TestCrossShardReferentsAt: an annotation marking two domains that hash
// to different shards commits whole to its home shard, interval trees for
// the other domain included. A stab of that other domain must find it, as
// it does on the unsharded store, though the domain's owner shard holds
// nothing there.
func TestCrossShardReferentsAt(t *testing.T) {
	const n = 3
	r := core.Router{Shards: n}
	d1, d2 := "dom-0", ""
	for i := 1; d2 == ""; i++ {
		if d := fmt.Sprintf("dom-%d", i); r.ShardOfKey(d) != r.ShardOfKey(d1) {
			d2 = d
		}
	}
	want, s := core.NewStore(), shard.New(n)
	for _, apply := range []func(persist.Op) error{workload.AsSink(want).Apply, s.Apply} {
		registerSeq(t, apply, "seq-1", d1)
		registerSeq(t, apply, "seq-2", d2)
	}
	type writer interface {
		NewAnnotation() *core.Builder
		MarkDomainInterval(string, interval.Interval) (*core.Referent, error)
		Commit(*core.Builder) (*core.Annotation, error)
	}
	for _, w := range []writer{want, s} {
		b := w.NewAnnotation().Creator("t").Date("2008-01-01").Body("spans two domains")
		for _, d := range []string{d1, d2} {
			m, err := w.MarkDomainInterval(d, interval.Interval{Lo: 0, Hi: 8})
			if err != nil {
				t.Fatal(err)
			}
			b.Refer(m)
		}
		if _, err := w.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.CrossShardCommits(); c != 1 {
		t.Fatalf("%d cross-shard commits, want 1", c)
	}
	for _, d := range []string{d1, d2} {
		got, w := referentStrings(s.ReferentsAt(d, 3)), referentStrings(want.ReferentsAt(d, 3))
		if len(w) != 1 || !reflect.DeepEqual(got, w) {
			t.Errorf("ReferentsAt(%s, 3) = %v, the unsharded store answers %v", d, got, w)
		}
	}
}

func referentStrings(refs []*core.Referent) []string {
	out := make([]string, 0, len(refs))
	for _, r := range refs {
		out = append(out, r.String())
	}
	return out
}

// TestDisconnectedQueryRefusedOverShards: a pattern whose variables no edge
// joins asks for a cross product, and the concatenated per-shard answers
// would miss every pair spanning two shards. Over more than one shard it
// is refused, naming the unjoined groups; over one it is answered, as the
// store answers it.
func TestDisconnectedQueryRefusedOverShards(t *testing.T) {
	const src = `select contents where { ?a isa annotation . ?r isa referent . ?a annotates ?r . ?b isa annotation . }`
	ops := workload.ShardedScenario(workload.RecoveryConfig{Seed: 5, Images: 4, Ops: 60}, 3)
	for n := 1; n <= 3; n++ {
		s := shard.New(n)
		if err := workload.ApplyOps(shard.AsSink(s), ops); err != nil {
			t.Fatal(err)
		}
		res, err := s.Views().Query(context.Background(), src, query.DefaultOptions)
		if n == 1 {
			if err != nil || res.Stats.Matches == 0 {
				t.Fatalf("one shard: %v, %+v", err, res)
			}
			continue
		}
		if !errors.Is(err, shard.ErrCrossProduct) || !strings.Contains(err.Error(), "{?a ?r} and {?b}") {
			t.Errorf("%d shards: err = %v, want ErrCrossProduct naming {?a ?r} and {?b}", n, err)
		}
	}
	connected := `select contents where { ?a isa annotation . ?r isa referent . ?a annotates ?r . }`
	if _, err := shard.New(3).Views().Query(context.Background(), connected, query.DefaultOptions); err != nil {
		t.Errorf("a connected pattern over 3 shards: %v", err)
	}
}
