package workload

import (
	"reflect"
	"slices"
	"testing"
)

func TestPropagationStudy(t *testing.T) {
	cfg := DefaultPropagation
	cfg.Annotations = 300
	study, err := Propagation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := study.Store.Stats()
	if st.Annotations != 300 {
		t.Fatalf("annotations = %d", st.Annotations)
	}
	if st.Derived == 0 {
		t.Fatal("study produced no derived facts")
	}
	// Determinism: same seed, same store, same derived table.
	again, err := Propagation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slices.Collect(study.Store.View().DerivedEach), slices.Collect(again.Store.View().DerivedEach)) {
		t.Fatal("propagation study is not deterministic")
	}
	// The closure rule fired: at least one fact targets an ontology term.
	sawClosure := false
	for _, f := range slices.Collect(study.Store.View().DerivedEach) {
		if f.Rule == "p-closure" {
			sawClosure = true
			break
		}
	}
	if !sawClosure {
		t.Fatal("closure rule produced no facts")
	}
}
