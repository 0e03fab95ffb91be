package core

import (
	"maps"
	"sort"
)

// Persistent (copy-on-write) containers backing the store's published read
// views. A View shares structure with its predecessor, and a pinned view is
// immutable for as long as a reader holds it. The writer mutates through
// edit handles (tableEdit, smapEdit) that clone a piece — an ID-table
// chunk, a map shard — the first time a session touches it and write in
// place after that. So an op costs the pieces it is first to touch, a
// writer session (see Tx) clones no piece twice however many ops it
// carries, and a publish is a handful of pointer stores plus the spatial
// snapshot maps — none of it proportional to the store.

// --- idtable: persistent chunked array keyed by dense uint64 IDs ---

const (
	tableChunkBits = 8
	tableChunkSize = 1 << tableChunkBits
	tableSlotMask  = tableChunkSize - 1
)

type tableChunk[T any] [tableChunkSize]*T

// idtable maps the store's monotonically assigned annotation/referent IDs
// (starting at 1, dense, never reused) to objects. Iteration in chunk/slot
// order IS ascending ID order, which is what retires the old
// allocate-and-sort-every-ID-on-every-scan pattern: a view enumerates
// annotations sorted by ID with no allocation and no sort.
type idtable[T any] struct {
	chunks []*tableChunk[T]
	count  int
}

func (t idtable[T]) len() int { return t.count }

func (t idtable[T]) get(id uint64) *T {
	ci := id >> tableChunkBits
	if ci >= uint64(len(t.chunks)) || t.chunks[ci] == nil {
		return nil
	}
	return t.chunks[ci][id&tableSlotMask]
}

// tableEdit batches mutations against a base idtable, copying the chunk
// spine and each touched chunk at most once; the embedded table is the
// edited state (reads see earlier writes) and the successor to publish.
// Writer-side only, and not to be used after that table is published.
type tableEdit[T any] struct {
	idtable[T]
	// base is the spine edited from: a chunk base does not hold was
	// allocated by this edit and may be written in place.
	base  []*tableChunk[T]
	spine bool // chunks is a private copy of base
}

func (t idtable[T]) edit() tableEdit[T] {
	return tableEdit[T]{idtable: t, base: t.chunks}
}

func (e *tableEdit[T]) mutable(ci uint64) *tableChunk[T] {
	if n := uint64(len(e.chunks)); !e.spine || ci >= n {
		chunks := make([]*tableChunk[T], max(n, ci+1))
		copy(chunks, e.chunks)
		e.chunks, e.spine = chunks, true
	}
	ch := e.chunks[ci]
	if ch == nil || ci < uint64(len(e.base)) && ch == e.base[ci] {
		own := new(tableChunk[T])
		if ch != nil {
			*own = *ch
		}
		e.chunks[ci], ch = own, own
	}
	return ch
}

func (e *tableEdit[T]) set(id uint64, v *T) {
	slot := &e.mutable(id >> tableChunkBits)[id&tableSlotMask]
	if *slot == nil {
		e.count++
	}
	*slot = v
}

func (e *tableEdit[T]) delete(id uint64) {
	if e.get(id) != nil {
		e.mutable(id >> tableChunkBits)[id&tableSlotMask] = nil
		e.count--
	}
}

// each visits every present entry in ascending ID order until fn returns
// false.
func (t idtable[T]) each(fn func(uint64, *T) bool) {
	for ci, ch := range t.chunks {
		if ch == nil {
			continue
		}
		base := uint64(ci) << tableChunkBits
		for si := 0; si < tableChunkSize; si++ {
			if v := ch[si]; v != nil {
				if !fn(base|uint64(si), v) {
					return
				}
			}
		}
	}
}

// ids materializes the ascending ID list (for API compatibility; internal
// paths iterate with each instead).
func (t idtable[T]) ids() []uint64 {
	out := make([]uint64, 0, t.count)
	t.each(func(id uint64, _ *T) bool {
		out = append(out, id)
		return true
	})
	return out
}

// --- smap: persistent sharded string-keyed map ---

// smapShards trades read-side indirection (none — shard lookup is one
// hash) against write-side clone cost (per touched shard, size/shards
// entries). Commits touch one shard per distinct content word, so shard
// count matters most for the keyword index: at 512 shards a 10k-word
// vocabulary costs ~20 copied entries per touched shard.
const smapShards = 512

type smapArr[V any] [smapShards]map[string]V

// smap is a string-keyed map sharded by FNV-1a hash. Reads index straight
// into the shard; the writer clones only the shards a mutation touches
// (via edit), so per-op publish cost is (#touched shards) x (shard size)
// instead of the whole map.
type smap[V any] struct {
	shards *smapArr[V]
}

func smapShardOf(k string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= prime32
	}
	return int(h % smapShards)
}

func (m smap[V]) get(k string) (V, bool) {
	if m.shards == nil {
		var zero V
		return zero, false
	}
	v, ok := m.shards[smapShardOf(k)][k]
	return v, ok
}

func (m smap[V]) len() int {
	if m.shards == nil {
		return 0
	}
	n := 0
	for _, sh := range m.shards {
		n += len(sh)
	}
	return n
}

// each visits all entries in unspecified order until fn returns false.
func (m smap[V]) each(fn func(string, V) bool) {
	if m.shards == nil {
		return
	}
	for _, sh := range m.shards {
		for k, v := range sh {
			if !fn(k, v) {
				return
			}
		}
	}
}

// smapEdit batches mutations against a base smap, cloning each shard at
// most once; done() assembles the successor map. Writer-side only.
type smapEdit[V any] struct {
	shards smapArr[V]
	cloned [smapShards]bool
}

func (m smap[V]) edit() *smapEdit[V] {
	e := &smapEdit[V]{}
	if m.shards != nil {
		e.shards = *m.shards
	}
	return e
}

func (e *smapEdit[V]) mutable(si int) map[string]V {
	if !e.cloned[si] {
		if e.shards[si] == nil {
			e.shards[si] = make(map[string]V, 1)
		} else {
			e.shards[si] = maps.Clone(e.shards[si])
		}
		e.cloned[si] = true
	}
	return e.shards[si]
}

func (e *smapEdit[V]) get(k string) (V, bool) {
	v, ok := e.shards[smapShardOf(k)][k]
	return v, ok
}

func (e *smapEdit[V]) set(k string, v V) {
	e.mutable(smapShardOf(k))[k] = v
}

func (e *smapEdit[V]) delete(k string) {
	si := smapShardOf(k)
	if _, ok := e.shards[si][k]; ok {
		delete(e.mutable(si), k)
	}
}

// done publishes the edited map. It aliases the edit's own shard array
// (already a copy of the base), so the edit must not be used afterwards.
func (e *smapEdit[V]) done() smap[V] {
	return smap[V]{shards: &e.shards}
}

// appendSortedID extends a sorted posting list with id. The common case
// (ascending IDs) appends in place: readers pinned to an older slice
// header never index past their own length, so sharing the backing array
// with the single-writer chain is safe. Out-of-order or duplicate IDs
// fall back to a fresh sorted insert.
func appendSortedID(ids []uint64, id uint64) []uint64 {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	out := make([]uint64, 0, len(ids)+1)
	out = append(out, ids[:i]...)
	out = append(out, id)
	return append(out, ids[i:]...)
}

// withoutID returns a fresh posting list without id (order preserved).
func withoutID(ids []uint64, id uint64) []uint64 {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if i >= len(ids) || ids[i] != id {
		return ids
	}
	if len(ids) == 1 {
		return nil
	}
	out := make([]uint64, 0, len(ids)-1)
	out = append(out, ids[:i]...)
	return append(out, ids[i+1:]...)
}

// --- small helpers for the rarely-mutated registration maps/slices ---

// mapWith clones m and sets k=v; registration-rate mutations only.
func mapWith[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	out := maps.Clone(m)
	if out == nil {
		out = make(map[K]V, 1)
	}
	out[k] = v
	return out
}

// insertSortedStr returns a fresh sorted slice with s inserted.
func insertSortedStr(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	out := make([]string, 0, len(xs)+1)
	out = append(out, xs[:i]...)
	out = append(out, s)
	return append(out, xs[i:]...)
}

// insertSortedObject returns a fresh (type, id)-sorted slice with h added.
func insertSortedObject(xs []ObjectHandle, h ObjectHandle) []ObjectHandle {
	i := sort.Search(len(xs), func(k int) bool {
		if xs[k].Type != h.Type {
			return xs[k].Type > h.Type
		}
		return xs[k].ID >= h.ID
	})
	out := make([]ObjectHandle, 0, len(xs)+1)
	out = append(out, xs[:i]...)
	out = append(out, h)
	return append(out, xs[i:]...)
}
