package shard

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"graphitti/internal/durable"
	"graphitti/internal/obs"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// TestRefusedRestoreKeepsTheGauges: each shard's view gauges
// (graphitti_store_view_epoch, _annotations and _derived_facts on
// /metrics) read the view it serves. A restore refused part-way stages a
// store per shard that publishes under the shard's label, then drops
// them; the gauges still read the live views, over one shard and three,
// in memory and over a directory. A restore that lands, and an Open of
// the directory, set them to the views they leave.
func TestRefusedRestoreKeepsTheGauges(t *testing.T) {
	all := workload.RecoveryScenario(workload.DefaultRecovery)
	full, err := workload.Serial(all)
	if err != nil {
		t.Fatal(err)
	}
	good, err := persist.Export(full)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Annotations = append([]persist.AnnotationDump(nil), good.Annotations...)
	half := &bad.Annotations[len(bad.Annotations)/2]
	half.Terms = append(half.Terms, persist.TermRefDump{Ontology: "no-such-ontology", Term: "x"})

	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		onDisk, err := Open(dir, n, durable.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Store{"in memory": New(n), "durable": onDisk} {
			what := fmt.Sprintf("%d shards %s", n, name)
			if err := workload.ApplyOps(s.Apply, all[:60]); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(&bad); err == nil {
				t.Fatalf("%s: the bad snapshot restored", what)
			}
			wantGauges(t, what+", refused restore", s.Views())
			if err := s.Restore(good); err != nil {
				t.Fatal(err)
			}
			wantGauges(t, what+", restore", s.Views())
		}
		if err := onDisk.Close(); err != nil {
			t.Fatal(err)
		}
		if err := New(n).Apply(all[0]); err != nil { // another store publishes under the labels
			t.Fatal(err)
		}
		reopened, err := Open(dir, 0, durable.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		wantGauges(t, fmt.Sprintf("%d shards, open", n), reopened.Views())
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// wantGauges fails t unless every shard's view gauges read its view.
func wantGauges(t *testing.T, what string, vs Views) {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for k, v := range vs {
		for name, want := range map[string]int{
			"graphitti_store_view_epoch":    int(v.Epoch()),
			"graphitti_store_annotations":   v.Stats().Annotations,
			"graphitti_store_derived_facts": v.Stats().Derived,
		} {
			if got := gauge(t, b.String(), name, k); got != want {
				t.Errorf("%s: shard %d: %s reads %d, its view %d", what, k, name, got, want)
			}
		}
	}
}

// gauge reads the sample of the family name for shard k off an exposition.
func gauge(t *testing.T, exposition, name string, k int) int {
	t.Helper()
	prefix := fmt.Sprintf("%s{shard=\"%d\"} ", name, k)
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample", strings.TrimSpace(prefix))
	return 0
}
