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
// leaf of at most 32 keys), one posting chunk's bytes per list it removes
// from and nothing but the ID's bytes per list it appends to. A writer
// session (core.Tx) copies no piece twice however many ops it carries, and
// a publish is a handful of pointer stores. None of it is proportional to the store,
// except logarithmically (trie depth, tree height) and through two spines
// (8 bytes of chunk pointer per 256 IDs a table holds, 32 of chunk header
// per 256 IDs of a posting list that loses one from its middle).
//
// Nothing is boxed per key: a map's keys live packed in its leaves, which
// copy the key bytes they are given. A posting list holds its IDs as
// delta-uvarints, about a byte per ID of a frequent keyword, and a list of
// one ID, or of a few whose bytes fit in seven, is held in the value
// itself.
package cow

import (
	"bytes"
	"encoding/binary"
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
	l, off := uvarintAt(keys, off)
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

// Postings is one keyword's annotation IDs, ascending, written as
// delta-uvarints: each ID is its distance from the one before it (the
// first of a chunk, the tail included, from zero) in groups of seven bits,
// so the close IDs of a frequent keyword take a byte each. A short list is
// held in the value itself, with no list header: a list whose bytes fit in
// inlineMax — any one ID below 2^49 among them — is those bytes, the low
// ones of n, with their length in n's top byte; the zero value, no bytes,
// is the empty list. Otherwise n is how many IDs this value holds — the
// head's chunks, then the first n minus the head's IDs of the tail.
//
// A tail's array is allocated with the list header (see newPostList)
// and never reassigned. Appending the highest ID yet writes its bytes into
// the spare room in place: a reader pinned to an older Postings value
// decodes its own count of IDs and never reaches them, so sharing the
// array along the single-writer chain is safe. Every other edit copies
// what it changes. Only the latest value of a chain may be extended.
type Postings struct {
	n    uint64
	list *postList
}

const (
	inlineMax   = 7             // bytes of delta-uvarints a value holds in n
	inlineShift = 8 * inlineMax // n's top byte: how many it holds
)

type postList struct {
	head *postHead // nil for a list of one chunk
	tail []byte    // len == cap: the array, spare room included
	// What the tail held after the last write through this header, its
	// making or an append: its last ID, its bytes and its IDs. A value with
	// that many tail IDs is the one that write made, as only the latest
	// value of a chain is extended, so the next append reads here where to
	// write and what to subtract; any other value decodes its tail.
	last       uint64
	end, count int32
}

type postHead struct {
	chunks []headChunk // none empty; ascending within and across, all below tail
	n      int         // IDs in chunks
}

// headChunk is a head chunk: the delta-uvarints of 1 to postChunk IDs,
// with their count and the last one, which locate searches by.
type headChunk struct {
	ids  string
	last uint64
	n    int
}

// uvarintAt decodes the uvarint at off in b and returns it and the offset
// after it.
func uvarintAt[S ~string | ~[]byte](b S, off int) (uint64, int) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		c := b[off]
		off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off
		}
	}
}

// eachID visits the first n IDs the delta-uvarints in b encode until fn
// returns false, and reports whether it visited them all.
func eachID[S ~string | ~[]byte](b S, n int, fn func(uint64) bool) bool {
	var id uint64
	for off := 0; n > 0; n-- {
		if c := b[off]; c < 0x80 {
			id, off = id+uint64(c), off+1
		} else {
			var d uint64
			d, off = uvarintAt(b, off)
			id += d
		}
		if !fn(id) {
			return false
		}
	}
	return true
}

// appendIDs appends the first n IDs the delta-uvarints in b encode to dst.
func appendIDs[S ~string | ~[]byte](dst []uint64, b S, n int) []uint64 {
	eachID(b, n, func(id uint64) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// appendDeltas appends ascending ids to dst as delta-uvarints.
func appendDeltas(dst []byte, ids []uint64) []byte {
	var prev uint64
	for _, id := range ids {
		dst, prev = binary.AppendUvarint(dst, id-prev), id
	}
	return dst
}

// deltasLen returns the number of bytes appendDeltas writes for ids.
func deltasLen(ids []uint64) int {
	n := 0
	var prev uint64
	for _, id := range ids {
		n, prev = n+(bits.Len64((id-prev)|1)+6)/7, id
	}
	return n
}

// newPostList allocates a list header and a tail array of room for at
// least c bytes. Up to 976 the two are one object, sized to fill an
// allocator size class (the header is 48 bytes); only a tail of wide gaps
// outgrows that, and its array is an object of its own.
func newPostList(head *postHead, c int) *postList {
	switch {
	case c <= 16:
		return withTail(head, func(a *[16]byte) []byte { return a[:] })
	case c <= 32:
		return withTail(head, func(a *[32]byte) []byte { return a[:] })
	case c <= 64:
		return withTail(head, func(a *[64]byte) []byte { return a[:] })
	case c <= 112:
		return withTail(head, func(a *[112]byte) []byte { return a[:] })
	case c <= 208:
		return withTail(head, func(a *[208]byte) []byte { return a[:] })
	case c <= 336:
		return withTail(head, func(a *[336]byte) []byte { return a[:] })
	case c <= 464:
		return withTail(head, func(a *[464]byte) []byte { return a[:] })
	case c <= 720:
		return withTail(head, func(a *[720]byte) []byte { return a[:] })
	case c <= 976:
		return withTail(head, func(a *[976]byte) []byte { return a[:] })
	}
	tail := slices.Grow([]byte(nil), c)
	return &postList{head: head, tail: tail[:cap(tail)]}
}

// withTail allocates a list header and its tail array A as one object.
func withTail[A any](head *postHead, room func(*A) []byte) *postList {
	b := new(struct {
		postList
		a A
	})
	b.postList = postList{head: head, tail: room(&b.a)}
	return &b.postList
}

// Len returns the number of IDs.
func (p Postings) Len() int {
	if p.list != nil {
		return int(p.n)
	}
	// The inline bytes that end a uvarint, whose high bit is clear.
	k := p.n >> inlineShift
	return bits.OnesCount64(^p.n & 0x0080808080808080 & (1<<(8*k) - 1))
}

// appendInline appends the IDs of a value with no list header to dst.
func (p Postings) appendInline(dst []uint64) []uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], p.n)
	return appendIDs(dst, b[:p.n>>inlineShift], p.Len())
}

// chunks returns the head chunks (nil for a short list).
func (p Postings) chunks() []headChunk {
	if p.list == nil || p.list.head == nil {
		return nil
	}
	return p.list.head.chunks
}

// tailLen returns the number of IDs p holds in its tail.
func (p Postings) tailLen() int {
	n := int(p.n)
	if h := p.list.head; h != nil {
		n -= h.n
	}
	return n
}

// tailEnd returns the length in bytes and the last ID of p's tail of t > 0
// IDs: the header's record when p is the value its last append made, else
// decoded.
func (p Postings) tailEnd(t int) (int, uint64) {
	l := p.list
	if int(l.count) == t {
		return int(l.end), l.last
	}
	var buf [postChunk]uint64
	ids := appendIDs(buf[:0], l.tail, t)
	return deltasLen(ids), ids[t-1]
}

// Each visits the IDs in ascending order until fn returns false.
func (p Postings) Each(fn func(uint64) bool) {
	if p.list == nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], p.n)
		eachID(b[:p.n>>inlineShift], p.Len(), fn)
		return
	}
	for _, c := range p.chunks() {
		if !eachID(c.ids, c.n, fn) {
			return
		}
	}
	eachID(p.list.tail, p.tailLen(), fn)
}

// locate appends to dst the IDs of the chunk that holds id or would take
// it — the first whose last ID is >= id — and returns them and the
// chunk's index; the tail is chunk len(p.chunks()).
func (p Postings) locate(id uint64, dst []uint64) (int, []uint64) {
	cs := p.chunks()
	i := sort.Search(len(cs), func(k int) bool { return cs[k].last >= id })
	if i < len(cs) {
		return i, appendIDs(dst, cs[i].ids, cs[i].n)
	}
	return i, appendIDs(dst, p.list.tail, p.tailLen())
}

// newChunk encodes 1 to postChunk ascending IDs as a head chunk.
func newChunk(ids []uint64) headChunk {
	var buf [postChunk * binary.MaxVarintLen64]byte
	return headChunk{string(appendDeltas(buf[:0], ids)), ids[len(ids)-1], len(ids)}
}

// makePostings returns the list of the given head chunks and tail: the
// tail is encoded into a new array of room for at least room bytes,
// unless the value can hold the list itself.
func makePostings(chunks []headChunk, tail []uint64, room int) Postings {
	size := deltasLen(tail)
	var head *postHead
	n := len(tail)
	switch {
	case len(chunks) > 0:
		head = &postHead{chunks: chunks}
		for _, c := range chunks {
			head.n += c.n
		}
		n += head.n
	case size <= inlineMax:
		var b [8]byte
		appendDeltas(b[:0], tail)
		b[inlineMax] = byte(size)
		return Postings{n: binary.LittleEndian.Uint64(b[:])}
	}
	l := newPostList(head, max(room, size))
	appendDeltas(l.tail[:0], tail)
	l.end, l.count = int32(size), int32(len(tail))
	if len(tail) > 0 {
		l.last = tail[len(tail)-1]
	}
	return Postings{uint64(n), l}
}

// withChunk returns the list with head chunk i replaced by repl (none,
// one, or the two halves of a split); the tail is shared.
func (p Postings) withChunk(i int, repl ...headChunk) Postings {
	cs, l, t := p.chunks(), p.list, p.tailLen()
	if len(cs) == 1 && len(repl) == 0 {
		var buf [postChunk]uint64
		return makePostings(nil, appendIDs(buf[:0], l.tail, t), len(l.tail))
	}
	spine := make([]headChunk, 0, len(cs)-1+len(repl))
	spine = append(append(append(spine, cs[:i]...), repl...), cs[i+1:]...)
	head := &postHead{chunks: spine}
	for _, c := range spine {
		head.n += c.n
	}
	return Postings{uint64(head.n + t), &postList{head, l.tail, l.last, l.end, l.count}}
}

// With returns the list with id added; a duplicate returns p unchanged.
func (p Postings) With(id uint64) Postings {
	if p.list == nil {
		var buf [inlineMax + 1]uint64
		ids := p.appendInline(buf[:0])
		if at, found := slices.BinarySearch(ids, id); !found {
			return makePostings(nil, slices.Insert(ids, at, id), 0)
		}
		return p
	}
	l, t := p.list, p.tailLen()
	if t == 0 {
		return p.insert(id)
	}
	end, last := p.tailEnd(t)
	switch {
	case last >= id:
		return p.insert(id)
	case t == postChunk: // above a full tail: it joins the head
		full := headChunk{string(l.tail[:end]), last, t}
		return makePostings(append(slices.Clip(p.chunks()), full), []uint64{id}, 0)
	}
	// The usual insert: an append, in place while the array has room.
	var d [binary.MaxVarintLen64]byte
	delta := binary.AppendUvarint(d[:0], id-last)
	if end+len(delta) > len(l.tail) { // the next size class up
		grown := newPostList(l.head, max(end+len(delta), len(l.tail)*5/4))
		copy(grown.tail, l.tail[:end])
		l = grown
	}
	l.last, l.end, l.count = id, int32(end+copy(l.tail[end:], delta)), int32(t+1)
	return Postings{p.n + 1, l}
}

// insert is With for an ID that does not append to a tail's IDs: the
// chunk that takes it, decoded, is written anew.
func (p Postings) insert(id uint64) Postings {
	var buf [postChunk + 1]uint64
	i, ids := p.locate(id, buf[:0])
	at, found := slices.BinarySearch(ids, id)
	if found {
		return p
	}
	chunks := p.chunks()
	grown := slices.Insert(ids, at, id)
	half := len(grown) / 2
	switch {
	case i < len(chunks) && len(grown) > postChunk:
		return p.withChunk(i, newChunk(grown[:half]), newChunk(grown[half:]))
	case i < len(chunks):
		return p.withChunk(i, newChunk(grown))
	case len(grown) > postChunk: // a full tail splits: its lower half joins the head
		chunks, grown = append(slices.Clip(chunks), newChunk(grown[:half])), grown[half:]
	}
	return makePostings(chunks, grown, len(p.list.tail))
}

// Without returns the list with id removed, if present. Chunks shrink
// and vanish but are not merged: like an ID table's, a list's spine
// follows the chunks it ever filled that still hold an ID.
func (p Postings) Without(id uint64) Postings {
	if p.list == nil {
		var buf [inlineMax]uint64
		ids := p.appendInline(buf[:0])
		if at, found := slices.BinarySearch(ids, id); found {
			return makePostings(nil, slices.Delete(ids, at, at+1), 0)
		}
		return p
	}
	return p.remove(id)
}

// remove is Without for a list with a header. A head chunk is copied
// with id's uvarint and the next one's replaced by one of their sum; the
// tail, decoded, is written anew without id.
func (p Postings) remove(id uint64) Postings {
	cs := p.chunks()
	i := sort.Search(len(cs), func(k int) bool { return cs[k].last >= id })
	if i == len(cs) {
		var buf [postChunk]uint64
		ids := appendIDs(buf[:0], p.list.tail, p.tailLen())
		if at, found := slices.BinarySearch(ids, id); found {
			return makePostings(cs, slices.Delete(ids, at, at+1), len(p.list.tail))
		}
		return p
	}
	c := cs[i]
	var prev uint64
	for off := 0; off < len(c.ids); {
		d, next := uvarintAt(c.ids, off)
		switch {
		case prev+d < id:
			prev, off = prev+d, next
			continue
		case prev+d > id:
			return p
		case c.n == 1:
			return p.withChunk(i)
		case next == len(c.ids): // the chunk's last ID
			return p.withChunk(i, headChunk{c.ids[:off], prev, c.n - 1})
		}
		var sum [binary.MaxVarintLen64]byte
		d2, after := uvarintAt(c.ids, next)
		merged := binary.AppendUvarint(sum[:0], d+d2)
		return p.withChunk(i, headChunk{c.ids[:off] + string(merged) + c.ids[after:], c.last, c.n - 1})
	}
	return p
}
