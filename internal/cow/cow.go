// Package cow holds Graphitti's persistent (copy-on-write) containers: the
// chunked ID table (Table), the string-keyed hash trie with packed leaves
// (Map) and the chunked ascending ID list (Postings). A core.View is built
// from them — annotations and referents by ID, the keyword index and its
// posting lists, the mark-dedup index, the derived-fact target index, the
// spatial trees by domain, one registry per kind of registered object
// (record tables and their rows included) — and so is the agraph.Graph
// value the view holds (its node table and one node index per kind).
//
// A value shares structure with its predecessor and never changes once a
// reader can hold it. The writer mutates through edit handles (TableEdit,
// MapEdit) that copy a piece — a table chunk, a trie node — the first time
// a session touches it and write in place after that. So an op costs the
// pieces it is first to touch: a chunk of 256 slots per table, a
// root-to-leaf path per key (a handful of four-way inner nodes and one
// leaf of at most 32 keys), one posting chunk per list it removes from and
// nothing but the ID per list it appends to. A writer session (core.Tx)
// copies no piece twice however many ops it carries, and a publish is a
// handful of pointer stores. None of it is proportional to the store,
// except logarithmically (trie depth, tree height) and through two spines
// of chunk pointers (8 bytes per 256 IDs a table holds, 24 per 256 IDs of
// a posting list that loses one from its middle).
//
// Nothing is boxed per key: a map's keys live packed in its leaves, which
// copy the key bytes they are given, and a posting list of one ID is that
// ID, held in the value itself.
package cow

import (
	"bytes"
	"encoding/binary"
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

// --- Map: persistent hash trie with packed leaves, keyed by string ---

// A Map is a hash trie whose leaves are packed. An inner node consumes
// mapBits of the key's hash and points at up to four subtrees; a leaf
// holds up to leafMax keys in one byte slice, each as a tag byte (the top
// byte of its hash), a uvarint length and its bytes, and their values in
// one slice, ordered by tag, then length, then bytes. A subtree of at most
// leafMax keys is always one leaf: an insert that overflows a leaf splits
// it by the next hash bits, and a delete that brings a subtree back to
// leafMax keys folds it into one leaf, so a map's shape depends on its
// keys and not on its history. Below the last hash bit the keys of equal
// hashes share a leaf of any size.
//
// A key costs its bytes, two bytes and its value; a node header and two
// slice headers are shared by the keys of a leaf. A lookup walks
// log4(n/leafMax) inner nodes and scans one leaf, where a key of another
// tag costs a byte comparison. An edit copies one root-to-leaf path: a
// few inner nodes and one leaf's slices, whatever the map holds.
const (
	mapBits     = 2
	mapMask     = 1<<mapBits - 1
	mapHashBits = 32 // below this depth keys with equal hashes share one leaf
	leafMax     = 32
)

// pmapHash is FNV-1a with a final avalanche (the trie consumes the low
// bits first, FNV's weakest). Deterministic, so a trie's shape and its
// iteration order depend on its keys alone.
func pmapHash[S ~string | ~[]byte](k S) uint32 {
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

// mnode is an inner node (keys == nil) or a leaf (keys != nil: even the
// empty key has its length byte).
type mnode[V any] struct {
	// stamp is the generation of the edit session that allocated the node
	// (see MapEdit), shifted over two flags. A leaf copied for writing
	// shares its slices with the original until one is written — a path
	// copy that replaces a value pays for the values, not for the keys —
	// and the flags say which the leaf has made its own.
	stamp uint64
	count int                     // keys in the subtree
	kids  [1 << mapBits]*mnode[V] // inner: by the next hash bits; nil is an empty quarter
	keys  []byte                  // leaf: the keys, encoded and ordered (see Map)
	vals  []V                     // leaf: by key
}

const (
	leafOwnsKeys = 1 << iota
	leafOwnsVals
	mnodeFlagBits = iota
)

// own records that the slice flagged f is private to n and reports
// whether it already was.
func (n *mnode[V]) own(f uint64) bool {
	had := n.stamp&f != 0
	n.stamp |= f
	return had
}

// keyTag is the tag byte of a key of hash h.
func keyTag(h uint32) byte { return byte(h >> 24) }

// keyAt returns the key encoded at off in a leaf's keys and the offset of
// the next one.
func keyAt[S ~string | ~[]byte](keys S, off int) (S, int) {
	off++ // the tag
	if c := keys[off]; c < 0x80 {
		return keys[off+1 : off+1+int(c)], off + 1 + int(c)
	}
	var l, shift uint
	for {
		c := keys[off]
		off++
		l |= uint(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
	}
	return keys[off : off+int(l)], off + int(l)
}

// find returns the index and byte offset of k, of tag tag, in leaf n, or
// of the first key after it, and whether k is there.
func (n *mnode[V]) find(k string, tag byte) (i, off int, found bool) {
	for ; off < len(n.keys); i++ {
		t := n.keys[off]
		if t > tag {
			break
		}
		key, next := keyAt(n.keys, off)
		if t == tag && (len(key) > len(k) || len(key) == len(k) && string(key) >= k) {
			return i, off, len(key) == len(k) && string(key) == k
		}
		off = next
	}
	return i, off, false
}

// Map is an immutable string-keyed map. The zero value is the empty map.
type Map[V any] struct {
	root *mnode[V]
	gen  uint64 // edit sessions behind this map; no node in it has a later stamp
}

// Len returns the number of keys.
func (m Map[V]) Len() int {
	if m.root == nil {
		return 0
	}
	return m.root.count
}

// Get returns the value stored under k.
func (m Map[V]) Get(k string) (V, bool) {
	h := pmapHash(k)
	n, path := m.root, h
	for n != nil && n.keys == nil {
		n, path = n.kids[path&mapMask], path>>mapBits
	}
	if n != nil {
		if i, _, ok := n.find(k, keyTag(h)); ok {
			return n.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Each visits all entries, in an order that depends on the keys alone,
// until fn returns false. The keys of a leaf are copied out as one string
// and handed to fn as substrings of it.
func (m Map[V]) Each(fn func(string, V) bool) {
	if m.root != nil {
		m.root.each(fn)
	}
}

func (n *mnode[V]) each(fn func(string, V) bool) bool {
	if n.keys == nil {
		for _, kid := range n.kids {
			if kid != nil && !kid.each(fn) {
				return false
			}
		}
		return true
	}
	keys := string(n.keys)
	var key string
	for i, off := 0, 0; off < len(keys); i++ {
		key, off = keyAt(keys, off)
		if !fn(key, n.vals[i]) {
			return false
		}
	}
	return true
}

// EachValue visits every value, in Each's order, until fn returns false.
// It copies no key.
func (m Map[V]) EachValue(fn func(V) bool) {
	if m.root != nil {
		m.root.eachValue(fn)
	}
}

func (n *mnode[V]) eachValue(fn func(V) bool) bool {
	if n.keys == nil {
		for _, kid := range n.kids {
			if kid != nil && !kid.eachValue(fn) {
				return false
			}
		}
		return true
	}
	for _, v := range n.vals {
		if !fn(v) {
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
// that still shares n's slices.
func (e *MapEdit[V]) mutable(n *mnode[V]) *mnode[V] {
	if n.stamp>>mnodeFlagBits == e.gen {
		return n
	}
	c := *n
	c.stamp = e.gen << mnodeFlagBits
	return &c
}

// leaf returns a new leaf over keys and vals, which become its own.
func (e *MapEdit[V]) leaf(keys []byte, vals []V) *mnode[V] {
	return &mnode[V]{stamp: e.gen<<mnodeFlagBits | leafOwnsKeys | leafOwnsVals,
		count: len(vals), keys: keys, vals: vals}
}

// splice replaces s[at:at+del] with ins: in place when the leaf owns s
// and it has the room, else in a new slice. A slice the leaf owns grows
// by a quarter, so a session that fills a leaf (a load) copies it every
// few keys and not at every one; a shared one is copied at its size
// (which the allocator rounds up to its size class).
func splice[T any](s []T, own bool, at, del int, ins ...T) []T {
	n := len(s) - del + len(ins)
	if own && n <= cap(s) {
		return slices.Replace(s, at, at+del, ins...)
	}
	c := n
	if own {
		c += n / 4
	}
	out := slices.Grow([]T(nil), c)
	return append(append(append(out, s[:at]...), ins...), s[at+del:]...)
}

// appendKey appends k, of tag tag, to a leaf's keys, encoded.
func appendKey(keys []byte, k string, tag byte) []byte {
	return append(binary.AppendUvarint(append(keys, tag), uint64(len(k))), k...)
}

// Set stores v under k.
func (e *MapEdit[V]) Set(k string, v V) {
	h := pmapHash(k)
	e.root, _ = e.set(e.root, h, 0, k, keyTag(h), v, nil)
}

// Update stores fn(v, ok) under k, where v, ok are what Get(k) returns:
// one walk of the trie where a Get and a Set take two.
func (e *MapEdit[V]) Update(k string, fn func(v V, ok bool) V) {
	h := pmapHash(k)
	var zero V
	e.root, _ = e.set(e.root, h, 0, k, keyTag(h), zero, fn)
}

// set stores v — or, with fn, fn of what k holds — under k, of hash h and
// tag tag, in the subtree n, whose keys agree on the hash bits below
// shift, and reports whether k is new.
func (e *MapEdit[V]) set(n *mnode[V], h uint32, shift uint, k string, tag byte, v V, fn func(V, bool) V) (*mnode[V], bool) {
	if n == nil {
		if fn != nil {
			v = fn(v, false)
		}
		return e.leaf(appendKey(nil, k, tag), []V{v}), true
	}
	if n.keys == nil {
		slot := h >> shift & mapMask
		kid, added := e.set(n.kids[slot], h, shift+mapBits, k, tag, v, fn)
		if kid != n.kids[slot] || added {
			n = e.mutable(n)
			n.kids[slot] = kid
			if added {
				n.count++
			}
		}
		return n, added
	}
	i, off, found := n.find(k, tag)
	if fn != nil {
		if found {
			v = fn(n.vals[i], true)
		} else {
			v = fn(v, false)
		}
	}
	if found {
		n = e.mutable(n)
		n.vals = splice(n.vals, n.own(leafOwnsVals), i, 1, v)
		return n, false
	}
	var buf [64]byte
	enc := appendKey(buf[:0], k, tag)
	if n.count >= leafMax && shift < mapHashBits {
		keys := append(append(append(make([]byte, 0, len(n.keys)+len(enc)), n.keys[:off]...), enc...), n.keys[off:]...)
		vals := append(append(append(make([]V, 0, n.count+1), n.vals[:i]...), v), n.vals[i:]...)
		return e.build(keys, vals, shift), true
	}
	n = e.mutable(n)
	n.keys = splice(n.keys, n.own(leafOwnsKeys), off, 0, enc...)
	n.vals = splice(n.vals, n.own(leafOwnsVals), i, 0, v)
	n.count++
	return n, true
}

// build returns the subtree over a leaf's worth of keys and values whose
// hashes agree below shift: one leaf when they fit, else an inner node
// over the quarters the next hash bits sort them into.
func (e *MapEdit[V]) build(keys []byte, vals []V, shift uint) *mnode[V] {
	if len(vals) <= leafMax || shift >= mapHashBits {
		return e.leaf(keys, vals)
	}
	slots := make([]uint8, len(vals))
	var size, count [1 << mapBits]int
	for i, off := 0, 0; off < len(keys); i++ {
		start := off
		var key []byte
		key, off = keyAt(keys, off)
		slots[i] = uint8(pmapHash(key) >> shift & mapMask)
		size[slots[i]] += off - start
		count[slots[i]]++
	}
	n := &mnode[V]{stamp: e.gen << mnodeFlagBits, count: len(vals)}
	for s := range n.kids {
		if count[s] == 0 {
			continue
		}
		qk, qv := make([]byte, 0, size[s]), make([]V, 0, count[s])
		for i, off := 0, 0; off < len(keys); i++ {
			start := off
			_, off = keyAt(keys, off)
			if int(slots[i]) == s {
				qk, qv = append(qk, keys[start:off]...), append(qv, vals[i])
			}
		}
		n.kids[s] = e.build(qk, qv, shift+mapBits)
	}
	return n
}

// Delete removes k, if present.
func (e *MapEdit[V]) Delete(k string) {
	if n, ok := e.remove(e.root, pmapHash(k), 0, k); ok {
		e.root = n
	}
}

// remove deletes k below n and keeps the trie canonical: an inner node
// left with leafMax keys folds into one leaf.
func (e *MapEdit[V]) remove(n *mnode[V], h uint32, shift uint, k string) (*mnode[V], bool) {
	if n == nil {
		return nil, false
	}
	if n.keys == nil {
		slot := h >> shift & mapMask
		kid, ok := e.remove(n.kids[slot], h, shift+mapBits, k)
		if !ok {
			return n, false
		}
		if n.count-1 <= leafMax {
			folded := *n
			folded.kids[slot] = kid
			folded.count--
			return e.fold(&folded), true
		}
		n = e.mutable(n)
		n.kids[slot] = kid
		n.count--
		return n, true
	}
	i, off, found := n.find(k, keyTag(h))
	switch {
	case !found:
		return n, false
	case n.count == 1:
		return nil, true
	}
	_, next := keyAt(n.keys, off)
	n = e.mutable(n)
	n.keys = splice(n.keys, n.own(leafOwnsKeys), off, next-off)
	n.vals = splice(n.vals, n.own(leafOwnsVals), i, 1)
	n.count--
	return n, true
}

// fold returns one leaf holding the keys and values of the subtree n.
func (e *MapEdit[V]) fold(n *mnode[V]) *mnode[V] {
	type entry struct {
		enc, key []byte // the key as a leaf encodes it, and its bytes
		val      V
	}
	order := func(a, b entry) int {
		switch {
		case a.enc[0] != b.enc[0]:
			return int(a.enc[0]) - int(b.enc[0])
		case len(a.key) != len(b.key):
			return len(a.key) - len(b.key)
		}
		return bytes.Compare(a.key, b.key)
	}
	all, size := make([]entry, 0, n.count), 0
	var gather func(n *mnode[V])
	gather = func(n *mnode[V]) {
		if n == nil {
			return
		}
		for _, kid := range n.kids {
			gather(kid)
		}
		for i, off := 0, 0; off < len(n.keys); i++ {
			start := off
			var key []byte
			key, off = keyAt(n.keys, off)
			all = append(all, entry{n.keys[start:off], key, n.vals[i]})
			size += off - start
		}
	}
	gather(n)
	slices.SortFunc(all, order)
	keys, vals := make([]byte, 0, size), make([]V, len(all))
	for i, en := range all {
		keys, vals[i] = append(keys, en.enc...), en.val
	}
	return e.leaf(keys, vals)
}

// --- Postings: persistent ascending ID list ---

// postChunk bounds a posting chunk, like tableChunkSize bounds an ID-table
// chunk: a delete or an out-of-order insert copies one chunk of at most
// this many IDs plus the spine of chunk headers, whatever the list holds.
const postChunk = 256

// Postings is one keyword's annotation IDs, ascending, in chunks. The
// zero value is the empty list, and a list of one ID is that ID: with no
// list, n is the ID (ID 0, which the store never assigns, takes a list).
// Otherwise n is how many IDs this value holds — the head's chunks, then
// the first n minus the head's IDs of the tail.
//
// A tail's array is allocated with the list header (see newPostList)
// and never reassigned. Appending the highest ID yet writes into
// its spare room in place: a reader pinned to an older Postings value
// never indexes past its own n, so sharing the array along the
// single-writer chain is safe. Every other edit copies what it changes.
// Only the latest value of a chain may be extended.
type Postings struct {
	n    uint64
	list *postList
}

type postList struct {
	head *postHead // nil for a list of one chunk
	tail []uint64  // len == cap: the array, spare room included
}

type postHead struct {
	chunks [][]uint64 // none empty; ascending within and across, all below tail
	n      int        // IDs in chunks
}

// newPostList allocates a list header and a tail array of room for at
// least c IDs. Up to 140 the two are one object, sized to fill an
// allocator size class. A full-size tail is an array of its own: it joins
// the head when it fills, and a head chunk must not keep the header it
// was allocated with (whose head holds every spine before it) alive.
func newPostList(head *postHead, c int) *postList {
	switch {
	case c <= 2:
		return withTail(head, func(a *[2]uint64) []uint64 { return a[:] })
	case c <= 4:
		return withTail(head, func(a *[4]uint64) []uint64 { return a[:] })
	case c <= 8:
		return withTail(head, func(a *[8]uint64) []uint64 { return a[:] })
	case c <= 16:
		return withTail(head, func(a *[16]uint64) []uint64 { return a[:] })
	case c <= 32:
		return withTail(head, func(a *[32]uint64) []uint64 { return a[:] })
	case c <= 68:
		return withTail(head, func(a *[68]uint64) []uint64 { return a[:] })
	case c <= 140:
		return withTail(head, func(a *[140]uint64) []uint64 { return a[:] })
	}
	return &postList{head, make([]uint64, postChunk)}
}

// withTail allocates a list header and its tail array A as one object.
func withTail[A any](head *postHead, ids func(*A) []uint64) *postList {
	b := new(struct {
		postList
		a A
	})
	b.postList = postList{head, ids(&b.a)}
	return &b.postList
}

// Len returns the number of IDs.
func (p Postings) Len() int {
	switch {
	case p.list != nil:
		return int(p.n)
	case p.n != 0:
		return 1
	}
	return 0
}

// chunks returns the head chunks (nil for a short list).
func (p Postings) chunks() [][]uint64 {
	if p.list == nil || p.list.head == nil {
		return nil
	}
	return p.list.head.chunks
}

// tail returns the IDs after the head chunks, with the array's spare room
// as their capacity (nil for the empty list and a list of one ID).
func (p Postings) tail() []uint64 {
	if p.list == nil {
		return nil
	}
	n := int(p.n)
	if h := p.list.head; h != nil {
		n -= h.n
	}
	return p.list.tail[:n]
}

// Each visits the IDs in ascending order until fn returns false.
func (p Postings) Each(fn func(uint64) bool) {
	if p.list == nil {
		if p.n != 0 {
			fn(p.n)
		}
		return
	}
	for _, c := range p.chunks() {
		for _, id := range c {
			if !fn(id) {
				return
			}
		}
	}
	for _, id := range p.tail() {
		if !fn(id) {
			return
		}
	}
}

// locate returns the chunk that holds id or would take it — the first
// whose last ID is >= id — and its index; the tail is chunk
// len(p.chunks()).
func (p Postings) locate(id uint64) (int, []uint64) {
	cs := p.chunks()
	i := sort.Search(len(cs), func(k int) bool { return cs[k][len(cs[k])-1] >= id })
	if i < len(cs) {
		return i, cs[i]
	}
	return i, p.tail()
}

// makePostings returns the list of the given head chunks and tail: the
// tail is copied into a new array of room for at least room IDs, unless
// the list is empty or one ID.
func makePostings(chunks [][]uint64, tail []uint64, room int) Postings {
	var head *postHead
	n := len(tail)
	if len(chunks) > 0 {
		head = &postHead{chunks: chunks}
		for _, c := range chunks {
			head.n += len(c)
		}
		n += head.n
	}
	switch {
	case head == nil && len(tail) == 0:
		return Postings{}
	case head == nil && len(tail) == 1 && tail[0] != 0:
		return Postings{n: tail[0]}
	}
	l := newPostList(head, max(room, len(tail)))
	copy(l.tail, tail)
	return Postings{uint64(n), l}
}

// withChunk returns the list with head chunk i replaced by repl (none,
// one, or the two halves of a split); the tail is shared.
func (p Postings) withChunk(i int, repl ...[]uint64) Postings {
	cs := p.chunks()
	spine := make([][]uint64, 0, len(cs)-1+len(repl))
	spine = append(append(append(spine, cs[:i]...), repl...), cs[i+1:]...)
	tail := p.tail()
	if len(spine) == 0 {
		return makePostings(nil, tail, cap(tail))
	}
	head := &postHead{chunks: spine}
	for _, c := range spine {
		head.n += len(c)
	}
	return Postings{uint64(head.n + len(tail)), &postList{head, p.list.tail}}
}

// With returns the list with id added; a duplicate returns p unchanged.
func (p Postings) With(id uint64) Postings {
	if p.list == nil {
		switch {
		case p.n == 0 && id != 0:
			return Postings{n: id}
		case p.n == id && id != 0:
			return p
		case p.n == 0:
			return makePostings(nil, []uint64{id}, 2)
		}
		return makePostings(nil, []uint64{min(p.n, id), max(p.n, id)}, 2)
	}
	tail := p.tail()
	if t := len(tail); t > 0 && t < postChunk && tail[t-1] < id { // the usual insert: an append
		if t < cap(tail) {
			p.list.tail[t] = id
			return Postings{p.n + 1, p.list}
		}
		l := newPostList(p.list.head, 2*t)
		copy(l.tail, tail)
		l.tail[t] = id
		return Postings{p.n + 1, l}
	}
	i, c := p.locate(id)
	at, found := slices.BinarySearch(c, id)
	chunks := p.chunks()
	switch {
	case found:
		return p
	case at == postChunk: // above a full tail: it joins the head
		return makePostings(append(slices.Clip(chunks), c), []uint64{id}, 2)
	case i == len(chunks): // into the tail, built here and copied into its new array
		var buf [postChunk + 1]uint64
		grown := append(append(append(buf[:0], c[:at]...), id), c[at:]...)
		if len(grown) > postChunk { // a full tail splits: its lower half joins the head
			half := len(grown) / 2
			chunks, grown = append(slices.Clip(chunks), slices.Clone(grown[:half])), grown[half:]
		}
		return makePostings(chunks, grown, cap(c))
	}
	grown := make([]uint64, len(c)+1)
	copy(grown, c[:at])
	grown[at] = id
	copy(grown[at+1:], c[at:])
	if len(grown) > postChunk {
		half := len(grown) / 2
		return p.withChunk(i, grown[:half:half], grown[half:])
	}
	return p.withChunk(i, grown)
}

// Without returns the list with id removed, if present. Chunks shrink
// and vanish but are not merged: like an ID table's, a list's spine
// follows the chunks it ever filled that still hold an ID.
func (p Postings) Without(id uint64) Postings {
	if p.list == nil {
		if p.n == id {
			return Postings{}
		}
		return p
	}
	i, c := p.locate(id)
	at, found := slices.BinarySearch(c, id)
	switch {
	case !found:
		return p
	case i == len(p.chunks()):
		var buf [postChunk]uint64
		shrunk := append(append(buf[:0], c[:at]...), c[at+1:]...)
		return makePostings(p.chunks(), shrunk, cap(c))
	case len(c) == 1:
		return p.withChunk(i)
	}
	shrunk := make([]uint64, len(c)-1)
	copy(shrunk, c[:at])
	copy(shrunk[at:], c[at+1:])
	return p.withChunk(i, shrunk)
}
