package workload

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/xmldoc"
)

// The two questions every concurrency, sharding, crash and fault harness
// asks take pinned views, one per shard, so one store ([]*core.View{v})
// and a shard set (its Views) are asked them the same way: Diff, is this
// state the one the oracle (usually Serial) holds; Check, could a reader
// of these views see an annotation half-applied, orphaned or mislocated.

// Diff reports the first way the state got pins differs from the one want
// pins, or nil when they are the same: their checkpoints byte for byte (a
// shard set's is the one store's of the same state), their derived facts
// merged in source order and per target through the target index, and
// their component counts.
func Diff(got, want []*core.View) error {
	g, err := checkpoint(got)
	if err != nil {
		return fmt.Errorf("workload: got: %w", err)
	}
	w, err := checkpoint(want)
	if err != nil {
		return fmt.Errorf("workload: want: %w", err)
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("workload: checkpoints differ (%d bytes, want %d): %w", len(g), len(w), snapshotDiff(g, w))
	}
	gf, wf := mergedFacts(got, nil), mergedFacts(want, nil)
	if err := factsDiff("derived facts", gf, wf); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	targets := map[agraph.NodeRef]bool{}
	for _, f := range wf {
		if !targets[f.Target] {
			targets[f.Target] = true
			if err := factsDiff("facts on "+f.Target.String(), mergedFacts(got, &f.Target), mergedFacts(want, &f.Target)); err != nil {
				return fmt.Errorf("workload: %w", err)
			}
		}
	}
	if gs, ws := core.MergedStats(got), core.MergedStats(want); gs != ws {
		return fmt.Errorf("workload: stats differ:\n got %+v\nwant %+v", gs, ws)
	}
	return nil
}

// checkpoint is the checkpoint persist writes of vs: what GET
// /api/snapshot serves and a compaction writes.
func checkpoint(vs []*core.View) ([]byte, error) {
	var b bytes.Buffer
	err := persist.WriteCheckpoint(vs, &b)
	return b.Bytes(), err
}

// snapshotDiff names the first section and entry in which the
// checkpoints g and w, decoded, differ.
func snapshotDiff(g, w []byte) error {
	gs, err := persist.Decode(bytes.NewReader(g))
	if err != nil {
		return fmt.Errorf("decoding got: %w", err)
	}
	ws, err := persist.Decode(bytes.NewReader(w))
	if err != nil {
		return fmt.Errorf("decoding want: %w", err)
	}
	gv, wv := reflect.ValueOf(*gs), reflect.ValueOf(*ws)
	for i := range gv.NumField() {
		name := gv.Type().Field(i).Name
		gf, wf := gv.Field(i), wv.Field(i)
		if reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			continue
		}
		if gf.Kind() != reflect.Slice {
			return fmt.Errorf("%s %v, want %v", name, gf, wf)
		}
		for j := 0; ; j++ {
			if j == gf.Len() || j == wf.Len() {
				return fmt.Errorf("section %s has %d entries, want %d", name, gf.Len(), wf.Len())
			}
			if ge, we := gf.Index(j).Interface(), wf.Index(j).Interface(); !reflect.DeepEqual(ge, we) {
				gj, _ := json.Marshal(ge)
				wj, _ := json.Marshal(we)
				return fmt.Errorf("section %s, entry %d:\n got %.1000s\nwant %.1000s", name, j, gj, wj)
			}
		}
	}
	return fmt.Errorf("the decoded snapshots are equal")
}

// mergedFacts is the derived facts of vs — all of them, or those on
// *target through the target index — in source order: every source
// annotation lives on one view, so a stable merge by source is the one
// store's order.
func mergedFacts(vs []*core.View, target *agraph.NodeRef) []core.DerivedFact {
	var out []core.DerivedFact
	add := func(f core.DerivedFact) bool {
		out = append(out, f)
		return true
	}
	for _, v := range vs {
		if target == nil {
			v.DerivedEach(add)
		} else {
			v.DerivedTargetingEach(*target, add)
		}
	}
	slices.SortStableFunc(out, func(a, b core.DerivedFact) int { return cmp.Compare(a.Source, b.Source) })
	return out
}

// factsDiff names the first fact in which got and want differ.
func factsDiff(what string, got, want []core.DerivedFact) error {
	for i := range max(len(got), len(want)) {
		if i == len(got) || i == len(want) {
			return fmt.Errorf("%s: %d, want %d", what, len(got), len(want))
		}
		if got[i] != want[i] {
			return fmt.Errorf("%s: fact %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// Check reports the first anomaly a reader of vs could see, through the
// read API alone, or nil when there is none (Brust & Rothkugel's
// taxonomy):
//
//   - orphaned: an annotation citing a referent its view does not hold,
//     or a stored referent no annotation cites;
//   - mislocated: an interval or region referent its index does not find
//     by its own mark, or an a-graph edge of a referent other than the
//     "marks" edge to its object and one "annotates" edge per citation;
//   - half-applied: counts (Stats) other than the tables hold, an
//     annotation table that does not ascend by ID, a keyword whose postings are not the documents holding it, a
//     derived table other than a from-scratch recompute (the store
//     persist loads from the view's own checkpoint), or a reader of
//     derived facts (DerivedFrom, DerivedOnto, the target index) that
//     disagrees with the table.
//
// Across a shard set every view must hold the same rules.
func Check(vs []*core.View) error {
	if _, err := prop.SharedRules(vs); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	for k, v := range vs {
		if err := checkView(v); err != nil {
			if len(vs) > 1 {
				return fmt.Errorf("workload: shard %d at epoch %d: %w", k, v.Epoch(), err)
			}
			return fmt.Errorf("workload: epoch %d: %w", v.Epoch(), err)
		}
	}
	return nil
}

// checkView runs every check on v. A reader that panics on what v holds
// shows an anomaly too.
func checkView(v *core.View) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("a reader panicked: %v", r)
		}
	}()
	for _, check := range []func(*core.View) error{checkReferents, checkNodes, checkKeywords, checkDerived} {
		if err := check(v); err != nil {
			return err
		}
	}
	return nil
}

// checkReferents finds orphans and mislocated referents, counts the
// stats disagree with, and an annotation table that does not ascend by
// ID (the citations it collects are compared in that order).
func checkReferents(v *core.View) error {
	citing := map[uint64][]uint64{} // referent -> the annotations citing it, ascending
	var err error
	anns, refs, last := 0, 0, uint64(0)
	v.AnnotationsEach(func(a *core.Annotation) bool {
		if anns++; a.ID <= last {
			err = fmt.Errorf("half-applied: the annotation table visits %d after %d", a.ID, last)
			return false
		}
		last = a.ID
		for id := range a.ReferentIDs {
			if _, e := v.Referent(id); e != nil {
				err = fmt.Errorf("orphan: annotation %d cites referent %d, which its view does not hold", a.ID, id)
				return false
			}
			citing[id] = append(citing[id], a.ID)
		}
		return true
	})
	if err != nil {
		return err
	}
	g := v.Graph()
	v.ReferentsEach(func(r *core.Referent) bool {
		refs++
		anns := citing[r.ID]
		if len(anns) == 0 {
			err = fmt.Errorf("orphan: referent %d (%s) is stored but no annotation cites it", r.ID, r)
			return false
		}
		var of []uint64
		for _, a := range v.AnnotationsOfReferent(r.ID) {
			of = append(of, a.ID)
		}
		if !slices.Equal(of, slices.Compact(slices.Clone(anns))) {
			err = fmt.Errorf("orphan: annotations %v cite referent %d, AnnotationsOfReferent answers %v", anns, r.ID, of)
			return false
		}
		node := agraph.Referent(r.ID)
		var in []uint64
		g.InEach(node, func(e agraph.Edge) bool {
			ann, sub, ok := agraph.ContentID(e.From)
			if !ok || sub != 1 {
				ann = 0
			}
			in = append(in, ann)
			return true
		}, agraph.LabelAnnotates)
		if slices.Sort(in); !slices.Equal(in, anns) {
			err = fmt.Errorf("mislocated: referent %d has annotates edges from %v, its citations are %v (0: not a content root)", r.ID, in, anns)
			return false
		}
		var marks []agraph.NodeRef
		g.OutEach(node, func(e agraph.Edge) bool {
			marks = append(marks, e.To)
			return true
		}, agraph.LabelMarks)
		if obj := agraph.Object(string(r.ObjectType), r.ObjectID); len(marks) != 1 || marks[0] != obj {
			err = fmt.Errorf("mislocated: referent %d marks %v, its object is %v", r.ID, marks, obj)
			return false
		}
		if r.Kind == core.IntervalReferent || r.Kind == core.RegionReferent {
			if !slices.Contains(v.ReferentsOverlapping(r.Mark()), r) {
				err = fmt.Errorf("mislocated: referent %d (%s) is not found by its own mark", r.ID, r)
				return false
			}
		}
		return true
	})
	if st := v.Stats(); err == nil && (st.Annotations != anns || st.Referents != refs) {
		err = fmt.Errorf("half-applied: Stats counts %d annotations and %d referents, the tables hold %d and %d", st.Annotations, st.Referents, anns, refs)
	}
	return err
}

// checkNodes finds a-graph nodes no table holds: the content node of an
// annotation or the node of a referent the view does not hold, or a term
// no annotation refers to.
func checkNodes(v *core.View) error {
	g := v.Graph()
	var err error
	g.NodesEach(func(n agraph.NodeRef) bool {
		switch n.Kind {
		case agraph.ContentNode:
			if id, _, _ := agraph.ContentID(n); notStored(v.Annotation(id)) {
				err = fmt.Errorf("orphan: a-graph node %s, and annotation %d is not stored", n, id)
			}
		case agraph.ReferentNode:
			if id, _ := agraph.ReferentID(n); notStored(v.Referent(id)) {
				err = fmt.Errorf("orphan: a-graph node %s, and referent %d is not stored", n, id)
			}
		case agraph.TermNode:
			if g.InCount(n, agraph.LabelRefersTo) == 0 {
				err = fmt.Errorf("orphan: a-graph node %s, and no annotation refers to it", n)
			}
		}
		return err == nil
	})
	return err
}

// notStored reports whether a table lookup failed.
func notStored[T any](_ T, err error) bool { return err != nil }

// checkKeywords compares the keyword index with the documents: each
// annotation's keywords are the tokens of its values that HasToken, the
// one definition of a keyword, accepts.
func checkKeywords(v *core.View) error {
	docs := map[string][]uint64{} // keyword -> the annotations holding it, ascending
	var toks []string
	v.AnnotationsEach(func(a *core.Annotation) bool {
		toks = toks[:0]
		for s := range a.Content.Root.Slots().All {
			toks = xmldoc.AppendTokens(toks, s)
		}
		slices.Sort(toks)
		for _, w := range slices.Compact(toks) {
			if a.HasToken(w) {
				docs[w] = append(docs[w], a.ID)
			}
		}
		return true
	})
	words := slices.Collect(maps.Keys(docs))
	v.EachKeyword(func(w string) bool {
		words = append(words, w)
		return true
	})
	slices.Sort(words)
	for _, w := range slices.Compact(words) {
		var idx []uint64
		for _, a := range v.SearchKeyword(w) {
			idx = append(idx, a.ID)
		}
		if !slices.Equal(idx, docs[w]) {
			return fmt.Errorf("half-applied: keyword %q is indexed on %v, the documents holding it are %v", w, idx, docs[w])
		}
	}
	return nil
}

// checkDerived compares the derived table with a recompute, and every
// reader of derived facts with the table.
func checkDerived(v *core.View) error {
	table := slices.Collect(v.DerivedEach)
	cp, err := checkpoint([]*core.View{v})
	if err != nil {
		return err
	}
	fresh, err := persist.Read(bytes.NewReader(cp))
	if err != nil {
		return fmt.Errorf("loading its own checkpoint: %w", err)
	}
	if err := factsDiff("half-applied: derived table against a recompute", table, slices.Collect(fresh.View().DerivedEach)); err != nil {
		return err
	}
	if n := v.Stats().Derived; n != len(table) {
		return fmt.Errorf("half-applied: Stats().Derived is %d, the table holds %d", n, len(table))
	}
	from, onto := map[uint64][]core.DerivedFact{}, map[agraph.NodeRef][]int{} // onto: places in table
	for i, f := range table {
		from[f.Source] = append(from[f.Source], f)
		onto[f.Target] = append(onto[f.Target], i)
	}
	facts := func(places []int) []core.DerivedFact {
		out := make([]core.DerivedFact, len(places))
		for i, p := range places {
			out[i] = table[p]
		}
		return out
	}
	for target, places := range onto {
		if err := factsDiff("half-applied: target index on "+target.String(), mergedFacts([]*core.View{v}, &target), facts(places)); err != nil {
			return err
		}
	}
	// A stale target-index entry shows only to HasDerivedTarget: probe
	// every node and every ID the counters have handed out.
	probe := func(n agraph.NodeRef) bool {
		if got := v.HasDerivedTarget(n, "*"); got != (len(onto[n]) > 0) {
			err = fmt.Errorf("half-applied: HasDerivedTarget(%s) is %v, the table holds %d facts on it", n, got, len(onto[n]))
		}
		return err == nil
	}
	v.Graph().NodesEach(probe)
	nextAnn, nextRef := v.IDCounters()
	for id := uint64(1); err == nil && id <= max(nextAnn, nextRef); id++ {
		_ = probe(agraph.ContentRoot(id)) && probe(agraph.Referent(id))
	}
	if err != nil {
		return err
	}
	v.AnnotationsEach(func(a *core.Annotation) bool {
		if err = factsDiff(fmt.Sprintf("half-applied: DerivedFrom(%d)", a.ID), v.DerivedFrom(a.ID), from[a.ID]); err != nil {
			return false
		}
		if got := v.HasDerivedFrom(a.ID, "*"); got != (len(from[a.ID]) > 0) {
			err = fmt.Errorf("half-applied: HasDerivedFrom(%d) is %v, the table holds %d facts from it", a.ID, got, len(from[a.ID]))
			return false
		}
		targets := []agraph.NodeRef{agraph.ContentRoot(a.ID)}
		for id := range a.ReferentIDs {
			if t := agraph.Referent(id); !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		var places []int
		for _, t := range targets {
			places = append(places, onto[t]...)
		}
		slices.Sort(places)
		got, e := v.DerivedOnto(a.ID)
		if e != nil {
			err = e
			return false
		}
		err = factsDiff(fmt.Sprintf("half-applied: DerivedOnto(%d)", a.ID), got, facts(places))
		return err == nil
	})
	return err
}
