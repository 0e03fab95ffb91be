package core

import (
	"fmt"
	"sort"

	"graphitti/internal/cow"
	"graphitti/internal/interval"
	"graphitti/internal/rtree"
	"graphitti/internal/subx"
)

// The sub-structure indexes ("simple techniques are used to keep the
// number of the index structures small"): one interval tree per coordinate
// domain, one R-tree per coordinate system. Both are persistent values,
// held by domain in the view like everything else it holds and edited by
// the writer session through a handle (Tx.it, Tx.rt). An entry carries the
// referent ID alone; reads resolve it through the view's referent table.
// Structural marks (clades, subgraphs, blocks, record sets, whole objects)
// need no spatial index; they are found through refByMark and the a-graph.
type (
	intervalTree = interval.Tree[struct{}]
	regionTree   = rtree.Tree[struct{}]
)

// treeStage holds the successor trees an op has built, by domain, until the
// op can no longer fail; only then does it store them in the session, so a
// refused op has nothing to undo. An op marks a handful of domains at most:
// scanned, not indexed.
type treeStage[T any] []stagedTree[T]

type stagedTree[T any] struct {
	key string
	val T
}

// get returns domain's tree as the op in progress has left it: its own
// successor if it built one, else the session's.
func (st treeStage[T]) get(e *cow.MapEdit[T], domain string) (T, bool) {
	for _, p := range st {
		if p.key == domain {
			return p.val, true
		}
	}
	return e.Get(domain)
}

func (st *treeStage[T]) put(domain string, tree T) {
	for i := range *st {
		if (*st)[i].key == domain {
			(*st)[i].val = tree
			return
		}
	}
	*st = append(*st, stagedTree[T]{domain, tree})
}

func (st treeStage[T]) store(e *cow.MapEdit[T]) {
	for _, p := range st {
		e.Set(p.key, p.val)
	}
}

// index adds a new referent's mark to the staged successor of its domain's
// tree. An interval domain's tree exists from its first mark (the zero tree
// is the empty one); a coordinate system's R-tree from its registration.
func (x *Tx) index(r *Referent, its *treeStage[intervalTree], rts *treeStage[regionTree]) error {
	switch r.Kind {
	case IntervalReferent:
		tree, _ := its.get(&x.it, r.Domain)
		tree, err := tree.Insert(r.Interval, r.ID, struct{}{})
		if err != nil {
			return err
		}
		its.put(r.Domain, tree)
	case RegionReferent:
		if r.Region == nil {
			return fmt.Errorf("%w: region mark without a region", ErrBadMark)
		}
		tree, ok := rts.get(&x.rt, r.Domain)
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchSystem, r.Domain)
		}
		tree, err := tree.Insert(*r.Region, r.ID, struct{}{})
		if err != nil {
			return err
		}
		rts.put(r.Domain, tree)
	}
	return nil
}

// unindex drops a garbage-collected referent's mark from the session's
// tree for its domain. An interval domain whose tree empties disappears; a
// per-system R-tree stays, empty: the coordinate system is still registered.
func (x *Tx) unindex(r *Referent) {
	switch r.Kind {
	case IntervalReferent:
		tree, _ := x.it.Get(r.Domain)
		if tree, _ = tree.Delete(r.Interval, r.ID); tree.Len() == 0 {
			x.it.Delete(r.Domain)
		} else {
			x.it.Set(r.Domain, tree)
		}
	case RegionReferent:
		if tree, ok := x.rt.Get(r.Domain); ok {
			tree, _ = tree.Delete(*r.Region, r.ID)
			x.rt.Set(r.Domain, tree)
		}
	}
}

// ReferentsOverlapping returns the committed referents whose mark overlaps
// the given mark, using the per-domain indexes for interval and region
// marks and a filtered scan for structural marks. Results are sorted by
// referent ID.
func (v *View) ReferentsOverlapping(m subx.Mark) []*Referent {
	var out []*Referent
	switch mark := m.(type) {
	case subx.IntervalMark:
		tree, _ := v.itrees.Get(mark.Domain)
		for _, e := range tree.Overlapping(mark.IV) {
			out = append(out, v.referents.Get(e.ID))
		}
	case subx.RegionMark:
		tree, _ := v.rtrees.Get(mark.System)
		for _, e := range tree.Search(mark.R) {
			out = append(out, v.referents.Get(e.ID))
		}
	default:
		v.referents.Each(func(_ uint64, r *Referent) bool {
			if subx.IfOverlap(r.Mark(), m) {
				out = append(out, r)
			}
			return true
		})
		return out // each() already yields ascending IDs
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReferentsAt returns the interval referents containing the given point of
// a coordinate domain (a stab query).
func (v *View) ReferentsAt(domain string, pos int64) []*Referent {
	return v.ReferentsOverlapping(subx.IntervalMark{
		Domain: domain,
		IV:     interval.Interval{Lo: pos, Hi: pos + 1},
	})
}

// ReferentsAt returns the interval referents containing the given point.
func (s *Store) ReferentsAt(domain string, pos int64) []*Referent {
	return s.View().ReferentsAt(domain, pos)
}

// RegionsOverlapping returns the region referents overlapping a rectangle
// of a coordinate system.
func (v *View) RegionsOverlapping(system string, r rtree.Rect) []*Referent {
	return v.ReferentsOverlapping(subx.RegionMark{System: system, R: r})
}

// IntervalDomains returns the names of coordinate domains that currently
// have an interval tree, sorted (diagnostics for ablation A1).
func (v *View) IntervalDomains() []string {
	out := make([]string, 0, v.itrees.Len())
	v.itrees.Each(func(d string, _ intervalTree) bool {
		out = append(out, d)
		return true
	})
	sort.Strings(out)
	return out
}
