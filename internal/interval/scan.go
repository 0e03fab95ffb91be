package interval

import (
	"fmt"
	"slices"
	"sort"
)

// Scan is a naive, unindexed collection of intervals that answers the same
// queries as Tree by linear search. It is the baseline for the A2 ablation
// (interval tree vs. scan) and the oracle for the tree's property tests;
// callers give each entry a distinct ID.
type Scan[V any] struct {
	entries []Entry[V]
}

// Len reports the number of entries.
func (s *Scan[V]) Len() int { return len(s.entries) }

// Insert adds an entry; the interval must be valid, as for Tree.Insert.
func (s *Scan[V]) Insert(iv Interval, id uint64, val V) error {
	if !iv.Valid() {
		return fmt.Errorf("%w: %v", ErrInvalid, iv)
	}
	s.entries = append(s.entries, Entry[V]{Interval: iv, ID: id, Value: val})
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

// Stab returns all entries containing p in (Lo, Hi, ID) order.
func (s *Scan[V]) Stab(p int64) []Entry[V] {
	return s.Overlapping(Interval{p, p + 1})
}

// Overlapping returns all entries overlapping q in (Lo, Hi, ID) order.
func (s *Scan[V]) Overlapping(q Interval) []Entry[V] {
	if !q.Valid() {
		return nil
	}
	var out []Entry[V]
	for _, e := range s.entries {
		if e.Overlaps(q) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// CountOverlapping returns the number of entries overlapping q.
func (s *Scan[V]) CountOverlapping(q Interval) int {
	if !q.Valid() {
		return 0
	}
	n := 0
	for _, e := range s.entries {
		if e.Overlaps(q) {
			n++
		}
	}
	return n
}

// Next returns the first entry after iv in (Lo, Hi, ID) order, mirroring
// Tree.Next.
func (s *Scan[V]) Next(iv Interval) (Entry[V], bool) {
	var best Entry[V]
	found := false
	for _, e := range s.entries {
		if e.Lo < iv.Hi {
			continue
		}
		if !found || less(e, best) {
			best, found = e, true
		}
	}
	return best, found
}
