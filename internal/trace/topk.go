package trace

import (
	"sort"
	"sync"
)

// TopK is a space-saving heavy-hitters sketch (Metwally, Agrawal and
// El Abbadi's Stream-Summary) over routing keys: it tracks at most k
// counters, and when a new key arrives with all counters taken it
// evicts the minimum counter and adopts its count as the new key's
// starting point, recording that inherited count as the entry's error
// bound. A key whose true frequency exceeds N/k is guaranteed to be
// present, which is exactly the "which keys dominate this shard" signal
// the rebalancing work needs — with k counters of memory, not one per
// distinct key.
//
// Safe for concurrent use; Record takes a mutex, so keep k small and
// call it once per routed mutation (the surrounding commit does far
// more work than the sketch).
type TopK struct {
	mu sync.Mutex
	k  int
	m  map[string]*tkEntry
}

type tkEntry struct {
	count uint64
	err   uint64
}

// KeyCount is one sketch entry: Count over-estimates the key's true
// frequency by at most Err.
type KeyCount struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// NewTopK returns a sketch tracking at most k keys (k < 1 is treated
// as 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, m: make(map[string]*tkEntry, k)}
}

// Record counts one occurrence of key. Empty keys are ignored (a
// mutation with no routing key, e.g. a delete routed by probe).
func (t *TopK) Record(key string) {
	if t == nil || key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[key]; ok {
		e.count++
		return
	}
	if len(t.m) < t.k {
		t.m[key] = &tkEntry{count: 1}
		return
	}
	// Evict the minimum counter; the newcomer inherits its count (the
	// space-saving guarantee: no key's true count is ever under-counted).
	var minKey string
	var min *tkEntry
	for k2, e := range t.m {
		if min == nil || e.count < min.count {
			minKey, min = k2, e
		}
	}
	delete(t.m, minKey)
	t.m[key] = &tkEntry{count: min.count + 1, err: min.count}
}

// Top returns the sketch entries sorted by count descending (key
// ascending on ties, so the order is deterministic).
func (t *TopK) Top() []KeyCount {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]KeyCount, 0, len(t.m))
	for k, e := range t.m {
		out = append(out, KeyCount{Key: k, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
