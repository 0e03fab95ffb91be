// Package subx implements the paper's generic sub-structure algebra.
//
// Section II of the paper defines operations that "apply on all
// substructures (called SUB_X …) in our purview":
//
//	ifOverlap : SUB_X x SUB_X -> {0,1}
//	next      : SUB_X -> SUB_X     (ordered domains only)
//	intersect : SUB_X x SUB_X -> SUB_X  (convex types only)
//
// The system evaluates ifOverlap, which this package implements; nothing
// in it asks for next or intersect.
//
// A Mark is a typed sub-structure: a 1-D interval in a named coordinate
// domain, a 2-D/3-D region in a named coordinate system, or a discrete key
// set (clade leaves, subgraph molecules, relational row keys, alignment
// rows) in a named space. Marks of different types, or of the same type in
// different domains, never overlap — the heterogeneity rule that lets
// Graphitti treat all referents uniformly.
package subx

import (
	"sort"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
)

// Mark is a sub-structure value usable with the SUB_X operators.
type Mark interface {
	// Kind names the mark type ("interval", "region", "set").
	Kind() string
	// Space names the coordinate domain/system/key-space of the mark.
	Space() string
	// Empty reports whether the mark covers nothing.
	Empty() bool
}

// IntervalMark is a 1-D sub-structure in a named domain (chromosome,
// genome segment, alignment column axis, …).
type IntervalMark struct {
	Domain string
	IV     interval.Interval
}

// Kind implements Mark.
func (m IntervalMark) Kind() string { return "interval" }

// Space implements Mark.
func (m IntervalMark) Space() string { return m.Domain }

// Empty implements Mark.
func (m IntervalMark) Empty() bool { return !m.IV.Valid() }

// RegionMark is a 2-D/3-D sub-structure in a named coordinate system.
type RegionMark struct {
	System string
	R      rtree.Rect
}

// Kind implements Mark.
func (m RegionMark) Kind() string { return "region" }

// Space implements Mark.
func (m RegionMark) Space() string { return m.System }

// Empty implements Mark.
func (m RegionMark) Empty() bool { return !m.R.Valid() }

// SetMark is a discrete sub-structure: a set of keys in a named space
// (tree leaves, molecule IDs, record primary keys, alignment row IDs).
type SetMark struct {
	SpaceName string
	Keys      []string // callers should treat as a set; order irrelevant
}

// NewSetMark returns a SetMark with deduplicated, sorted keys.
func NewSetMark(space string, keys ...string) SetMark {
	seen := make(map[string]bool, len(keys))
	var out []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return SetMark{SpaceName: space, Keys: out}
}

// Kind implements Mark.
func (m SetMark) Kind() string { return "set" }

// Space implements Mark.
func (m SetMark) Space() string { return m.SpaceName }

// Empty implements Mark.
func (m SetMark) Empty() bool { return len(m.Keys) == 0 }

// IfOverlap implements the paper's ifOverlap operator. Marks of different
// kinds or different spaces never overlap.
func IfOverlap(a, b Mark) bool {
	if a == nil || b == nil || a.Kind() != b.Kind() || a.Space() != b.Space() {
		return false
	}
	switch am := a.(type) {
	case IntervalMark:
		bm := b.(IntervalMark)
		return am.IV.Overlaps(bm.IV)
	case RegionMark:
		bm := b.(RegionMark)
		return am.R.Overlaps(bm.R)
	case SetMark:
		bm := b.(SetMark)
		return shareKey(am.Keys, bm.Keys)
	default:
		return false
	}
}

// shareKey reports whether two sorted key slices have a key in common.
func shareKey(a, b []string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
