// Package cow holds Graphitti's persistent (copy-on-write) containers: the
// chunked ID table (Table), the string-keyed hash trie (Map) and the
// chunked ascending ID list (Postings). A core.View is built from them —
// annotations and referents by ID, the keyword index and its posting lists,
// the mark-dedup index, the derived-fact target index, the spatial trees by
// domain, the record tables — and so is the agraph.Graph value the view
// holds (its node table and one node index per kind).
//
// A value shares structure with its predecessor and never changes once a
// reader can hold it. The writer mutates through edit handles (TableEdit,
// MapEdit) that copy a piece — a table chunk, a trie node — the first time
// a session touches it and write in place after that. So an op costs the
// pieces it is first to touch: a chunk of 256 slots per table, a
// root-to-entry path of three or four small nodes per key, one posting
// chunk per list it removes from and nothing but the ID per list it appends
// to. A writer session (core.Tx) copies no piece twice however many ops it
// carries, and a publish is a handful of pointer stores. None of it is
// proportional to the store, except logarithmically (trie depth, tree
// height) and through two spines of chunk pointers (8 bytes per 256 IDs a
// table holds, 24 per 256 IDs of a posting list that loses one from its
// middle).
package cow

import (
	"math/bits"
	"slices"
	"sort"
)

// --- Table: persistent chunked array keyed by dense uint64 IDs ---

const (
	tableChunkBits = 8
	tableChunkSize = 1 << tableChunkBits
	tableSlotMask  = tableChunkSize - 1
)

type tableChunk[T any] [tableChunkSize]*T

// Table maps dense uint64 IDs — the store's monotonically assigned
// annotation/referent IDs (starting at 1, never reused), the a-graph's node
// indices — to objects. Iteration in chunk/slot order IS ascending ID
// order, which is what retires the old allocate-and-sort-every-ID-on-
// every-scan pattern: a view enumerates annotations sorted by ID with no
// allocation and no sort. The zero value is the empty table.
type Table[T any] struct {
	chunks []*tableChunk[T]
	count  int
}

// Len returns the number of IDs present.
func (t Table[T]) Len() int { return t.count }

// Get returns the object stored under id, or nil.
func (t Table[T]) Get(id uint64) *T {
	ci := id >> tableChunkBits
	if ci >= uint64(len(t.chunks)) || t.chunks[ci] == nil {
		return nil
	}
	return t.chunks[ci][id&tableSlotMask]
}

// TableEdit batches mutations against a base Table, copying the chunk
// spine and each touched chunk at most once; the embedded table is the
// edited state (reads see earlier writes) and the successor to publish.
// Writer-side only, and not to be used after that table is published.
type TableEdit[T any] struct {
	Table[T]
	// base is the spine edited from: a chunk base does not hold was
	// allocated by this edit and may be written in place.
	base  []*tableChunk[T]
	spine bool // chunks is a private copy of base
}

// Edit opens an edit session on t.
func (t Table[T]) Edit() TableEdit[T] {
	return TableEdit[T]{Table: t, base: t.chunks}
}

func (e *TableEdit[T]) mutable(ci uint64) *tableChunk[T] {
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

// Set stores v (not nil) under id.
func (e *TableEdit[T]) Set(id uint64, v *T) {
	slot := &e.mutable(id >> tableChunkBits)[id&tableSlotMask]
	if *slot == nil {
		e.count++
	}
	*slot = v
}

// Delete removes id, if present.
func (e *TableEdit[T]) Delete(id uint64) {
	if e.Get(id) != nil {
		e.mutable(id >> tableChunkBits)[id&tableSlotMask] = nil
		e.count--
	}
}

// Each visits every present entry in ascending ID order until fn returns
// false.
func (t Table[T]) Each(fn func(uint64, *T) bool) {
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

// IDs materializes the ascending ID list (for API compatibility; internal
// paths iterate with Each instead).
func (t Table[T]) IDs() []uint64 {
	out := make([]uint64, 0, t.count)
	t.Each(func(id uint64, _ *T) bool {
		out = append(out, id)
		return true
	})
	return out
}

// --- Map: persistent hash-array-mapped trie keyed by string ---

// A Map is a CHAMP-style hash trie: a node consumes pmapBits of the
// key's hash and holds, compactly and in slot order, the entries that are
// alone in their slot and the child nodes of the slots several keys share.
// A lookup is one bitmap test and one index per level, log32(n) levels.
// Fanout 32 is the classic trade: at 10k-100k keys a key sits three to
// four nodes deep, and a root-to-entry path copy is a few hundred bytes,
// whatever the map holds. Entries are boxed, so copying a node copies
// pointers, not keys and values.
const (
	pmapBits     = 5
	pmapMask     = 1<<pmapBits - 1
	pmapHashBits = 32 // below this depth keys with equal hashes share a bucket node
)

// pmapHash is FNV-1a with a final avalanche (the trie consumes the low
// bits first, FNV's weakest). Deterministic, so a trie's shape and its
// iteration order depend on its keys alone.
func pmapHash(k string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= prime32
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

type pentry[V any] struct {
	key string
	val V
}

type pnode[V any] struct {
	datamap uint32 // slots holding an entry
	nodemap uint32 // slots holding a child
	// stamp is the generation of the edit session that allocated the node
	// (see MapEdit), shifted over two flags. The arrays of a node copied
	// for writing stay shared with the original until one is written — a
	// path copy pays for the array it changes, not for both — and the
	// flags say which the node has made its own.
	stamp   uint64
	entries []*pentry[V] // by slot; a plain list in a bucket node
	kids    []*pnode[V]  // by slot
}

const (
	pnodeOwnsEntries = 1 << iota
	pnodeOwnsKids
	pnodeFlagBits = iota
)

// own records that the array flagged f is private to n and reports
// whether it already was.
func (n *pnode[V]) own(f uint64) bool {
	had := n.stamp&f != 0
	n.stamp |= f
	return had
}

// Map is an immutable string-keyed map. The zero value is the empty map.
type Map[V any] struct {
	root  *pnode[V]
	count int
	gen   uint64 // edit sessions behind this map; no node in it has a later stamp
}

// Len returns the number of keys.
func (m Map[V]) Len() int { return m.count }

// Get returns the value stored under k.
func (m Map[V]) Get(k string) (V, bool) {
	h := pmapHash(k)
	n := m.root
	for shift := uint(0); n != nil; shift += pmapBits {
		if shift >= pmapHashBits {
			for _, e := range n.entries {
				if e.key == k {
					return e.val, true
				}
			}
			break
		}
		bit := uint32(1) << (h >> shift & pmapMask)
		if n.datamap&bit != 0 {
			if e := n.entries[bits.OnesCount32(n.datamap&(bit-1))]; e.key == k {
				return e.val, true
			}
			break
		}
		if n.nodemap&bit == 0 {
			break
		}
		n = n.kids[bits.OnesCount32(n.nodemap&(bit-1))]
	}
	var zero V
	return zero, false
}

// Each visits all entries in unspecified order until fn returns false.
func (m Map[V]) Each(fn func(string, V) bool) {
	if m.root != nil {
		m.root.each(fn)
	}
}

func (n *pnode[V]) each(fn func(string, V) bool) bool {
	for _, e := range n.entries {
		if !fn(e.key, e.val) {
			return false
		}
	}
	for _, kid := range n.kids {
		if !kid.each(fn) {
			return false
		}
	}
	return true
}

// MapEdit batches mutations against a base Map. A session takes the
// generation after its base's: every node reachable from the base carries
// an earlier one, so a node stamped with the session's own was allocated
// by it and is reachable from no published map. The session copies a node
// the first time it writes it and stamps the copy; a stamped node is
// written in place from then on, so a session copies no node twice. The
// embedded map is the edited state (reads see earlier writes) and the
// successor to publish: sealing is a root-pointer store. Writer-side
// only, and not to be used after that map is published.
type MapEdit[V any] struct{ Map[V] }

// Edit opens an edit session on m.
func (m Map[V]) Edit() MapEdit[V] {
	m.gen++
	return MapEdit[V]{m}
}

// mutable returns n if this session allocated it, else a stamped copy
// that still shares n's arrays.
func (e *MapEdit[V]) mutable(n *pnode[V]) *pnode[V] {
	if n.stamp>>pnodeFlagBits == e.gen {
		return n
	}
	c := *n
	c.stamp = e.gen << pnodeFlagBits
	return &c
}

// insertAt, removeAt and replaceAt edit a node's array: in place when the
// node owns it (append-style growth keeps a bulk load amortised), as an
// exact-size copy when it is still shared.
func insertAt[T any](s []T, own bool, i int, x T) []T {
	if own {
		return slices.Insert(s, i, x)
	}
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

func removeAt[T any](s []T, own bool, i int) []T {
	if own {
		return slices.Delete(s, i, i+1)
	}
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

func replaceAt[T any](s []T, own bool, i int, x T) []T {
	if !own {
		s = slices.Clone(s)
	}
	s[i] = x
	return s
}

// Set stores v under k.
func (e *MapEdit[V]) Set(k string, v V) {
	ent := &pentry[V]{k, v}
	if e.root == nil {
		e.root = new(pnode[V])
	}
	e.root = e.insert(e.root, pmapHash(k), 0, ent)
}

func (e *MapEdit[V]) insert(n *pnode[V], h uint32, shift uint, ent *pentry[V]) *pnode[V] {
	if shift >= pmapHashBits {
		n = e.mutable(n)
		for i, old := range n.entries {
			if old.key == ent.key {
				ent.key = old.key
				n.entries = replaceAt(n.entries, n.own(pnodeOwnsEntries), i, ent)
				return n
			}
		}
		n.entries = insertAt(n.entries, n.own(pnodeOwnsEntries), len(n.entries), ent)
		e.count++
		return n
	}
	bit := uint32(1) << (h >> shift & pmapMask)
	di := bits.OnesCount32(n.datamap & (bit - 1))
	ki := bits.OnesCount32(n.nodemap & (bit - 1))
	switch {
	case n.nodemap&bit != 0:
		kid := e.insert(n.kids[ki], h, shift+pmapBits, ent)
		if kid != n.kids[ki] {
			n = e.mutable(n)
			n.kids = replaceAt(n.kids, n.own(pnodeOwnsKids), ki, kid)
		}
	case n.datamap&bit == 0:
		n = e.mutable(n)
		n.entries = insertAt(n.entries, n.own(pnodeOwnsEntries), di, ent)
		n.datamap |= bit
		e.count++
	case n.entries[di].key == ent.key:
		ent.key = n.entries[di].key
		n = e.mutable(n)
		n.entries = replaceAt(n.entries, n.own(pnodeOwnsEntries), di, ent)
	default:
		// A second key in the slot: both move one level down.
		old := n.entries[di]
		kid := e.pair(old, pmapHash(old.key), ent, h, shift+pmapBits)
		n = e.mutable(n)
		n.entries = removeAt(n.entries, n.own(pnodeOwnsEntries), di)
		n.kids = insertAt(n.kids, n.own(pnodeOwnsKids), ki, kid)
		n.datamap &^= bit
		n.nodemap |= bit
		e.count++
	}
	return n
}

// pair builds the subtree holding two entries whose hashes agree on
// every bit above shift.
func (e *MapEdit[V]) pair(a *pentry[V], ha uint32, b *pentry[V], hb uint32, shift uint) *pnode[V] {
	n := &pnode[V]{stamp: e.gen<<pnodeFlagBits | pnodeOwnsEntries | pnodeOwnsKids}
	sa, sb := ha>>shift&pmapMask, hb>>shift&pmapMask
	switch {
	case shift >= pmapHashBits:
		n.entries = []*pentry[V]{a, b}
	case sa == sb:
		n.nodemap = 1 << sa
		n.kids = []*pnode[V]{e.pair(a, ha, b, hb, shift+pmapBits)}
	default:
		if sa > sb {
			a, b = b, a
		}
		n.datamap = 1<<sa | 1<<sb
		n.entries = []*pentry[V]{a, b}
	}
	return n
}

// Delete removes k, if present.
func (e *MapEdit[V]) Delete(k string) {
	if e.root == nil {
		return
	}
	if n, ok := e.remove(e.root, pmapHash(k), 0, k); ok {
		e.root = n
		e.count--
		if e.count == 0 {
			e.root = nil
		}
	}
}

// remove deletes k below n and keeps the trie canonical: a child left
// with a single entry and no children folds back into its parent's slot,
// so a map's shape depends on its keys and not on its history.
func (e *MapEdit[V]) remove(n *pnode[V], h uint32, shift uint, k string) (*pnode[V], bool) {
	if shift >= pmapHashBits {
		for i, old := range n.entries {
			if old.key == k {
				n = e.mutable(n)
				n.entries = removeAt(n.entries, n.own(pnodeOwnsEntries), i)
				return n, true
			}
		}
		return n, false
	}
	bit := uint32(1) << (h >> shift & pmapMask)
	di := bits.OnesCount32(n.datamap & (bit - 1))
	ki := bits.OnesCount32(n.nodemap & (bit - 1))
	switch {
	case n.datamap&bit != 0:
		if n.entries[di].key != k {
			return n, false
		}
		n = e.mutable(n)
		n.entries = removeAt(n.entries, n.own(pnodeOwnsEntries), di)
		n.datamap &^= bit
		return n, true
	case n.nodemap&bit != 0:
		kid, ok := e.remove(n.kids[ki], h, shift+pmapBits, k)
		if !ok {
			return n, false
		}
		n = e.mutable(n)
		if len(kid.kids) == 0 && len(kid.entries) == 1 {
			n.kids = removeAt(n.kids, n.own(pnodeOwnsKids), ki)
			n.entries = insertAt(n.entries, n.own(pnodeOwnsEntries), di, kid.entries[0])
			n.nodemap &^= bit
			n.datamap |= bit
		} else if kid != n.kids[ki] {
			n.kids = replaceAt(n.kids, n.own(pnodeOwnsKids), ki, kid)
		}
		return n, true
	}
	return n, false
}

// --- Postings: persistent ascending ID list ---

// postChunk bounds a posting chunk, like tableChunkSize bounds an ID-table
// chunk: a delete or an out-of-order insert copies one chunk of at most
// this many IDs plus the spine of chunk headers, whatever the list holds.
const postChunk = 256

// Postings is one keyword's annotation IDs, ascending, in chunks. A list
// that fits one chunk is just tail — a unique word costs its 8 bytes and
// a slice header. The chunks before tail sit behind head.
//
// Appending the highest ID yet writes into tail's spare capacity in
// place: a reader pinned to an older Postings value never indexes past
// its own length, so sharing the backing array along the single-writer
// chain is safe. Every other edit copies what it changes. Only the latest
// value of a chain may be extended.
type Postings struct {
	tail []uint64
	head *postHead
}

type postHead struct {
	chunks [][]uint64 // none empty; ascending within and across, all below tail
	n      int        // IDs in chunks
}

// Len returns the number of IDs.
func (p Postings) Len() int {
	if p.head == nil {
		return len(p.tail)
	}
	return p.head.n + len(p.tail)
}

// Each visits the IDs in ascending order until fn returns false.
func (p Postings) Each(fn func(uint64) bool) {
	if p.head != nil {
		for _, c := range p.head.chunks {
			for _, id := range c {
				if !fn(id) {
					return
				}
			}
		}
	}
	for _, id := range p.tail {
		if !fn(id) {
			return
		}
	}
}

// chunks returns the head chunks (nil for a short list).
func (p Postings) chunks() [][]uint64 {
	if p.head == nil {
		return nil
	}
	return p.head.chunks
}

// locate returns the chunk that holds id or would take it — the first
// whose last ID is >= id — and its index; tail is chunk len(p.chunks()).
func (p Postings) locate(id uint64) (int, []uint64) {
	cs := p.chunks()
	i := sort.Search(len(cs), func(k int) bool { return cs[k][len(cs[k])-1] >= id })
	if i < len(cs) {
		return i, cs[i]
	}
	return i, p.tail
}

// room is the capacity a copy of chunk c, with one ID more or fewer,
// should have: the tail keeps its own, so the appends that follow stay in
// place; a head chunk is never appended to.
func (p Postings) room(i int, c []uint64) int {
	if i == len(p.chunks()) {
		return cap(c)
	}
	return len(c) - 1
}

// splice returns p with chunk i replaced by repl: no chunk, one, or the
// two halves of a split. The last replacement of the tail is the new
// tail; anything else lands in a fresh spine.
func (p Postings) splice(i int, repl ...[]uint64) Postings {
	cs := p.chunks()
	rest := cs[i:]
	if i == len(cs) {
		p.tail = nil
		if len(repl) > 0 {
			p.tail, repl = repl[len(repl)-1], repl[:len(repl)-1]
		}
		if len(repl) == 0 {
			return p
		}
	} else {
		rest = rest[1:]
	}
	spine := make([][]uint64, 0, i+len(repl)+len(rest))
	spine = append(append(append(spine, cs[:i]...), repl...), rest...)
	p.head = nil
	if len(spine) > 0 {
		p.head = &postHead{chunks: spine}
		for _, c := range spine {
			p.head.n += len(c)
		}
	}
	return p
}

// With returns the list with id added; a duplicate returns p unchanged.
func (p Postings) With(id uint64) Postings {
	if n := len(p.tail); n == 0 && p.head == nil || n > 0 && n < postChunk && p.tail[n-1] < id {
		p.tail = append(p.tail, id)
		return p
	}
	i, c := p.locate(id)
	at, found := slices.BinarySearch(c, id)
	switch {
	case found:
		return p
	case at == postChunk: // above a full tail: it joins the head
		return p.splice(i, c, []uint64{id})
	}
	grown := make([]uint64, len(c)+1, max(p.room(i, c), len(c)+1))
	copy(grown, c[:at])
	grown[at] = id
	copy(grown[at+1:], c[at:])
	if len(grown) > postChunk {
		half := len(grown) / 2
		return p.splice(i, grown[:half:half], grown[half:])
	}
	return p.splice(i, grown)
}

// Without returns the list with id removed, if present. Chunks shrink
// and vanish but are not merged: like an ID table's, a list's spine
// follows the chunks it ever filled that still hold an ID.
func (p Postings) Without(id uint64) Postings {
	i, c := p.locate(id)
	at, found := slices.BinarySearch(c, id)
	switch {
	case !found:
		return p
	case len(c) == 1:
		return p.splice(i)
	}
	shrunk := make([]uint64, len(c)-1, p.room(i, c))
	copy(shrunk, c[:at])
	copy(shrunk[at:], c[at+1:])
	return p.splice(i, shrunk)
}
