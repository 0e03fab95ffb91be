package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
)

// TestOracleOverPinnedStreams applies every pinned stream one op per
// session, to one store and, for the sharded streams, to a set of three
// shards. No view either publishes shows an anomaly (Check after every
// op), and each ends in the state Serial builds (Diff). Check costs a
// load of the view's checkpoint, so a stream costs its length squared:
// -short leaves out the 1200-op stream, whose first 400 ops are
// DefaultRecovery's.
func TestOracleOverPinnedStreams(t *testing.T) {
	type target struct {
		name  string
		apply func(persist.Op) error
		views func() []*core.View
	}
	for _, c := range pinnedStreams {
		t.Run(fmt.Sprintf("seed-%d-ops-%d-systems-%d", c.cfg.Seed, c.cfg.Ops, c.systems), func(t *testing.T) {
			if testing.Short() && c.cfg.Ops > DefaultRecovery.Ops {
				t.Skip("quadratic in the stream's length; its first 400 ops are DefaultRecovery's")
			}
			t.Parallel()
			ops := c.ops()
			want, err := Serial(ops)
			if err != nil {
				t.Fatal(err)
			}
			cs := core.NewStore()
			targets := []target{{"one store", func(op persist.Op) error { return cs.Batch(op.Apply) }, func() []*core.View { return []*core.View{cs.View()} }}}
			if c.systems > 0 {
				sh := shard.New(3)
				targets = append(targets, target{"3 shards", sh.Apply, func() []*core.View { return sh.Views() }})
			}
			for _, tg := range targets {
				for i, op := range ops {
					if err := tg.apply(op); err != nil {
						t.Fatalf("%s: op %d (%s): %v", tg.name, i+1, op.Kind, err)
					}
					if err := Check(tg.views()); err != nil {
						t.Fatalf("%s: after op %d (%s): %v", tg.name, i+1, op.Kind, err)
					}
				}
				if err := Diff(tg.views(), []*core.View{want.View()}); err != nil {
					t.Errorf("%s: %v", tg.name, err)
				}
			}
		})
	}
}

// TestDiffNamesTheDifference: stores one difference apart — an
// annotation's body, a rule, an ID counter — differ, and Diff names the
// section and entry where.
func TestDiffNamesTheDifference(t *testing.T) {
	ops := RecoveryScenario(RecoveryConfig{Seed: 7, Images: 3, Ops: 60})
	base, err := Serial(ops)
	if err != nil {
		t.Fatal(err)
	}
	want := []*core.View{base.View()}
	if err := Diff(want, want); err != nil {
		t.Fatalf("a view against itself: %v", err)
	}
	// The first live annotation's commit: IDs are 1-based in commit order.
	first := base.View().Annotations()[0].ID
	commits := 0
	i := slices.IndexFunc(ops, func(op persist.Op) bool {
		if op.Kind == core.OpCommitAnnotation {
			commits++
		}
		return commits == int(first)
	})
	body := slices.Clone(ops)
	d := *body[i].Annotation
	d.Body = "another body"
	body[i].Annotation = &d
	nextAnn, nextRef := base.View().IDCounters()
	then := func(edit func(*core.Tx) error) (*core.Store, error) {
		s, err := Serial(ops)
		if err != nil {
			return nil, err
		}
		return s, s.Batch(edit)
	}
	for _, c := range []struct {
		name  string
		build func() (*core.Store, error)
		want  string
	}{
		{"body", func() (*core.Store, error) { return Serial(body) }, "section Annotations, entry 0"},
		{"rule", func() (*core.Store, error) {
			return then(persist.RuleOp(prop.Rule{ID: "one-more", Edge: prop.EdgeOverlap, Domain: "atlas"}).Apply)
		}, "section Rules, entry 0"},
		{"counter", func() (*core.Store, error) {
			return then(func(x *core.Tx) error { return x.RestoreIDCounters(nextAnn+1, nextRef) })
		}, fmt.Sprintf("NextAnn %d, want %d", nextAnn+1, nextAnn)},
	} {
		got, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := Diff([]*core.View{got.View()}, want); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Diff = %v, want it to name %q", c.name, err, c.want)
		}
	}
}
