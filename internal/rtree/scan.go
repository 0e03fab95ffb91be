package rtree

import (
	"fmt"
	"slices"
	"sort"
)

// Scan is a naive, unindexed collection of rectangles answering the same
// queries as Tree by linear search. It is the baseline for the A3 ablation
// (R-tree vs. scan) and the oracle for the tree's property tests; callers
// give each entry a distinct ID.
type Scan[V any] struct {
	dims    int
	entries []Entry[V]
}

// NewScan returns an empty scan baseline for rectangles of the given
// dimensionality.
func NewScan[V any](dims int) (*Scan[V], error) {
	if dims < 2 || dims > MaxDims {
		return nil, fmt.Errorf("%w: dims %d", ErrInvalid, dims)
	}
	return &Scan[V]{dims: dims}, nil
}

// Len reports the number of entries.
func (s *Scan[V]) Len() int { return len(s.entries) }

// Insert adds an entry; the rectangle must be valid and of the scan's
// dimensionality, as for Tree.Insert.
func (s *Scan[V]) Insert(r Rect, id uint64, val V) error {
	if !r.Valid() || r.Dims != s.dims {
		return fmt.Errorf("%w: %v (dims %d)", ErrInvalid, r, s.dims)
	}
	s.entries = append(s.entries, Entry[V]{Rect: r, ID: id, Value: val})
	return nil
}

// Delete removes the entry with the given ID, reporting whether it existed.
func (s *Scan[V]) Delete(id uint64) bool {
	i := slices.IndexFunc(s.entries, func(e Entry[V]) bool { return e.ID == id })
	if i < 0 {
		return false
	}
	last := len(s.entries) - 1
	s.entries[i] = s.entries[last]
	s.entries = s.entries[:last]
	return true
}

// Search returns all entries overlapping q, sorted by ID.
func (s *Scan[V]) Search(q Rect) []Entry[V] {
	if !q.Valid() || q.Dims != s.dims {
		return nil
	}
	var out []Entry[V]
	for _, e := range s.entries {
		if e.Rect.Overlaps(q) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Count returns the number of entries overlapping q.
func (s *Scan[V]) Count(q Rect) int {
	if !q.Valid() || q.Dims != s.dims {
		return 0
	}
	n := 0
	for _, e := range s.entries {
		if e.Rect.Overlaps(q) {
			n++
		}
	}
	return n
}
