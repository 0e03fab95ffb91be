package core

import (
	"fmt"
	"sort"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
	"graphitti/internal/subx"
)

// indexReferent inserts a freshly-assigned referent into the writer-owned
// sub-structure index for its domain, creating per-domain trees on demand.
// Structural marks (clades, subgraphs, blocks, record sets, whole objects)
// need no spatial index; they are found through refByMark and the a-graph.
// Caller holds w.
func (s *Store) indexReferent(r *Referent) error {
	switch r.Kind {
	case IntervalReferent:
		tree, ok := s.itrees[r.Domain]
		if !ok {
			tree = &interval.Tree[string]{}
			s.itrees[r.Domain] = tree
		}
		return tree.Insert(r.Interval, r.ID, r.ObjectID)
	case RegionReferent:
		tree, ok := s.rtrees[r.Domain]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchSystem, r.Domain)
		}
		return tree.Insert(r.Region, r.ID, r.ObjectID)
	default:
		return nil
	}
}

// unindexReferent reverses indexReferent (commit rollback and referent
// garbage collection). Caller holds w.
func (s *Store) unindexReferent(r *Referent) {
	switch r.Kind {
	case IntervalReferent:
		if tree, ok := s.itrees[r.Domain]; ok {
			tree.Delete(r.ID)
			if tree.Len() == 0 {
				delete(s.itrees, r.Domain)
			}
		}
	case RegionReferent:
		if tree, ok := s.rtrees[r.Domain]; ok {
			tree.Delete(r.ID)
			// Per-system R-trees persist even when empty: the coordinate
			// system stays registered.
		}
	}
}

// snapshotITrees returns the interval-snapshot map a view publishes: one
// O(1) snapshot per live domain (a domain whose tree emptied is gone).
// Caller holds w.
func (s *Store) snapshotITrees() map[string]interval.Snapshot[string] {
	out := make(map[string]interval.Snapshot[string], len(s.itrees))
	for d, tree := range s.itrees {
		out[d] = tree.Snapshot()
	}
	return out
}

// snapshotRTrees is snapshotITrees for the per-system R-trees. Caller
// holds w.
func (s *Store) snapshotRTrees() map[string]rtree.Snapshot[string] {
	out := make(map[string]rtree.Snapshot[string], len(s.rtrees))
	for d, tree := range s.rtrees {
		out[d] = tree.Snapshot()
	}
	return out
}

// ReferentsOverlapping returns the committed referents whose mark overlaps
// the given mark, using the per-domain indexes for interval and region
// marks and a filtered scan for structural marks. Results are sorted by
// referent ID.
func (v *View) ReferentsOverlapping(m subx.Mark) []*Referent {
	var out []*Referent
	switch mark := m.(type) {
	case subx.IntervalMark:
		if snap, ok := v.itrees[mark.Domain]; ok {
			for _, e := range snap.Overlapping(mark.IV) {
				out = append(out, v.referents.get(e.ID))
			}
		}
	case subx.RegionMark:
		if snap, ok := v.rtrees[mark.System]; ok {
			for _, e := range snap.Search(mark.R) {
				out = append(out, v.referents.get(e.ID))
			}
		}
	default:
		v.referents.each(func(_ uint64, r *Referent) bool {
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

// ReferentsOverlapping returns the committed referents overlapping the
// given mark (see View.ReferentsOverlapping).
func (s *Store) ReferentsOverlapping(m subx.Mark) []*Referent {
	return s.View().ReferentsOverlapping(m)
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

// RegionsOverlapping returns the region referents overlapping a rectangle
// of a coordinate system.
func (s *Store) RegionsOverlapping(system string, r rtree.Rect) []*Referent {
	return s.View().RegionsOverlapping(system, r)
}

// NextReferent implements the SUB_X next operator on an interval referent:
// the first interval referent that starts at or after the end of r in the
// same domain. ok is false when none follows or r is not an interval mark.
func (v *View) NextReferent(r *Referent) (*Referent, bool) {
	if r == nil || r.Kind != IntervalReferent {
		return nil, false
	}
	snap, ok := v.itrees[r.Domain]
	if !ok {
		return nil, false
	}
	e, ok := snap.Next(r.Interval)
	if !ok {
		return nil, false
	}
	return v.referents.get(e.ID), true
}

// NextReferent implements the SUB_X next operator on an interval referent.
func (s *Store) NextReferent(r *Referent) (*Referent, bool) {
	return s.View().NextReferent(r)
}

// IntervalDomains returns the names of coordinate domains that currently
// have an interval tree, sorted (diagnostics for ablation A1).
func (v *View) IntervalDomains() []string {
	out := make([]string, 0, len(v.itrees))
	for d := range v.itrees {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// IntervalDomains returns the domains that currently have interval trees.
func (s *Store) IntervalDomains() []string { return s.View().IntervalDomains() }

// IntervalTreeSize returns the number of entries in one domain's tree.
func (v *View) IntervalTreeSize(domain string) int {
	if snap, ok := v.itrees[domain]; ok {
		return snap.Len()
	}
	return 0
}

// IntervalTreeSize returns the number of entries in one domain's tree.
func (s *Store) IntervalTreeSize(domain string) int {
	return s.View().IntervalTreeSize(domain)
}
