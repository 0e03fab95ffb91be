package main

import "testing"

const testScale = 0.02

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := generate(w, 7, testScale), generate(w, 7, testScale), generate(w, 8, testScale)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed gave streams %s and %s", w.name, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", w.name, a.hash())
		}
	}
}

func TestStreamShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		st := generate(w, 3, testScale)
		nPre, nWarm, nOps := w.sizes(testScale)
		if len(st.preload) != nPre || st.warm != nWarm || st.measured() != nOps {
			t.Fatalf("%s: sizes %d/%d/%d, want %d/%d/%d", w.name, len(st.preload), st.warm, st.measured(), nPre, nWarm, nOps)
		}
		if nOps%(stretches*clients) != 0 {
			t.Errorf("%s: %d ops do not split evenly over %d stretches and %d clients", w.name, nOps, stretches, clients)
		}
		inMix := map[class]bool{}
		for _, s := range w.mix {
			inMix[s.cl] = true
		}
		deleted := map[int]bool{}
		for i, o := range st.ops {
			if !inMix[o.cl] {
				t.Fatalf("%s op %d: class %s is not in the mix", w.name, i, o.cl)
			}
			switch o.cl {
			case clCreate:
				if o.slot != nPre+i || o.ann == nil {
					t.Fatalf("%s op %d: create fills slot %d, want %d", w.name, i, o.slot, nPre+i)
				}
			case clDelete, clGet, clRelated:
				if deleted[o.slot] {
					t.Fatalf("%s op %d: %s addresses slot %d, deleted earlier", w.name, i, o.cl, o.slot)
				}
				if o.slot >= nPre {
					made := o.slot - nPre
					if made%clients != i%clients || i-made < clients*deleteAge {
						t.Fatalf("%s op %d: %s addresses the annotation of op %d: another client's, or too young", w.name, i, o.cl, made)
					}
				}
				if o.cl == clDelete {
					if o.slot < nPre {
						t.Fatalf("%s op %d: delete of preloaded slot %d", w.name, i, o.slot)
					}
					deleted[o.slot] = true
				}
			}
		}
		// Every stretch has the same composition; a write workload's
		// early deletes may have had nothing old enough to delete.
		if !w.static() {
			continue
		}
		per := nOps / stretches
		want := map[class]int{}
		for _, o := range st.ops[nWarm : nWarm+per] {
			want[o.cl]++
		}
		for b := 1; b < stretches; b++ {
			got := map[class]int{}
			for _, o := range st.ops[nWarm+b*per : nWarm+(b+1)*per] {
				got[o.cl]++
			}
			for cl, n := range want {
				if got[cl] != n {
					t.Errorf("%s stretch %d: %d %s ops, stretch 0 has %d", w.name, b, got[cl], cl, n)
				}
			}
		}
	}
}

func TestMixCountsAreExact(t *testing.T) {
	mix := []share{{clGet, 25}, {clRefAt, 20}, {clRelated, 20}, {clKeyword, 12}, {clQuery, 20}, {clSearch, 3}}
	counts := mixCounts(mix, 450)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 450 {
		t.Errorf("counts %v sum to %d, want 450", counts, total)
	}
	if counts[4] != 90 || counts[5] != 13 {
		t.Errorf("counts %v: want 90 query and 13 search of 450", counts)
	}
}
