package cow

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// ids materialises a posting list (tests compare against plain slices).
func (p Postings) ids() []uint64 {
	out := make([]uint64, 0, p.Len())
	p.Each(func(id uint64) bool {
		out = append(out, id)
		return true
	})
	return out
}

// fnvState is pmapHash before its avalanche, which is a bijection: two
// keys hash equal exactly when their states are equal.
func fnvState(k []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range k {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// equalHashKeys returns n five-byte keys whose hashes are all equal, met
// in the middle: every state two final bytes can step back to from a
// fixed target, matched against the states of three-byte prefixes.
func equalHashKeys(n int) []string {
	const prime = 16777619
	inv := uint32(prime) // Newton's iteration for prime's inverse mod 2^32
	for i := 0; i < 5; i++ {
		inv *= 2 - prime*inv
	}
	target := fnvState([]byte("equal"))
	back := make(map[uint32][2]byte, 1<<16)
	for b4 := 0; b4 < 256; b4++ {
		for b3 := 0; b3 < 256; b3++ {
			back[((target*inv)^uint32(b4))*inv^uint32(b3)] = [2]byte{byte(b3), byte(b4)}
		}
	}
	var keys []string
	for pre := 0; len(keys) < n; pre++ {
		k := []byte{byte(pre >> 16), byte(pre >> 8), byte(pre)}
		if last, ok := back[fnvState(k)]; ok {
			keys = append(keys, string(append(k, last[:]...)))
		}
	}
	return keys
}

// containerKeys is the key pool of the container tests: plain words,
// keys long enough for a two-byte length, and more keys of one hash than
// a leaf holds (a path of single-child inner nodes down to a leaf below
// the last hash bit).
var containerKeys = sync.OnceValue(func() []string {
	var keys []string
	for i := 0; i < 120; i++ {
		keys = append(keys, fmt.Sprintf("word%03d", i))
	}
	for i := 0; i < 4; i++ {
		keys = append(keys, strings.Repeat("long", 40)+strconv.Itoa(i))
	}
	return append(keys, equalHashKeys(leafMax+8)...)
})

// equalKeys returns the pool's keys of one hash, its last leafMax+8.
func equalKeys() []string {
	keys := containerKeys()
	return keys[len(keys)-(leafMax+8):]
}

// maxTailRoom is the largest tail array a list can come to: the size
// class of a quarter more than the bytes of postChunk IDs of the widest
// gaps.
var maxTailRoom = sync.OnceValue(func() int {
	return cap(slices.Grow([]byte(nil), postChunk*binary.MaxVarintLen64*5/4))
})

// checkPostings verifies a posting list's shape and contents.
func checkPostings(t testing.TB, p Postings, want []uint64) {
	t.Helper()
	if got := p.ids(); !slices.Equal(got, want) || p.Len() != len(want) {
		t.Fatalf("Postings %v (len %d), want %v", got, p.Len(), want)
	}
	enc := appendDeltas(nil, want)
	if p.list == nil {
		if k := int(p.n >> inlineShift); k != len(enc) {
			t.Fatalf("%v held as %d inline bytes (%x), encoded in %d", want, k, p.n, len(enc))
		}
		return
	}
	if p.list.head == nil && len(enc) <= inlineMax {
		t.Fatalf("list header for %v, whose %d bytes the value holds", want, len(enc))
	}
	n := 0
	for _, c := range p.chunks() {
		if c.n == 0 || c.n > postChunk {
			t.Fatalf("head chunk of %d IDs", c.n)
		}
		ids := appendIDs(nil, c.ids, c.n)
		if len(appendDeltas(nil, ids)) != len(c.ids) || c.last != ids[c.n-1] {
			t.Fatalf("head chunk of %d IDs in %d bytes, last %d: decodes %v", c.n, len(c.ids), c.last, ids)
		}
		if n > 0 && ids[0] <= want[n-1] || !slices.IsSorted(ids) {
			t.Fatalf("head chunk %v after ID %d", ids, want[max(n-1, 0)])
		}
		n += c.n
	}
	if h := p.list.head; h != nil && (n != h.n || n == 0) {
		t.Fatalf("head counts %d IDs, holds %d", h.n, n)
	}
	l, tail := p.list, want[n:]
	end, room := len(appendDeltas(nil, tail)), len(l.tail)
	if len(tail) > postChunk || end > room || room != cap(l.tail) || room < 16 {
		t.Fatalf("tail of %d IDs in %d bytes of an array of %d (cap %d)", len(tail), end, room, cap(l.tail))
	}
	// The array is a size newPostList makes, and no larger than a tail
	// can come to need: growth is by a quarter, and only while the bytes
	// of at most postChunk IDs outgrow it.
	if len(newPostList(nil, room).tail) != room || room > maxTailRoom() {
		t.Fatalf("tail array of %d bytes: not a size newPostList makes, or above %d", room, maxTailRoom())
	}
	if int(l.count) == len(tail) && (int(l.end) != end || len(tail) > 0 && l.last != tail[len(tail)-1]) {
		t.Fatalf("header records a tail of %d IDs ending at byte %d with %d, holds %v in %d bytes",
			l.count, l.end, l.last, tail, end)
	}
}

// checkTrie verifies the structural invariants of a Map: every key sits
// under its hash prefix with its hash's tag, a leaf's keys are in order and at most leafMax
// above the last hash bit, a subtree of at most leafMax keys is one leaf,
// no node carries a later stamp than the map, and the counts are right.
func checkTrie[V any](t testing.TB, m Map[V]) {
	t.Helper()
	var walk func(n *mnode[V], shift uint, prefix uint64) int
	walk = func(n *mnode[V], shift uint, prefix uint64) int {
		if n.stamp>>mnodeFlagBits > m.gen {
			t.Fatalf("node stamped %d in a map of generation %d", n.stamp>>mnodeFlagBits, m.gen)
		}
		if n.keys == nil {
			if shift >= mapHashBits || n.vals != nil {
				t.Fatalf("inner node at shift %d with %d values", shift, len(n.vals))
			}
			keys := 0
			for slot, kid := range n.kids {
				if kid != nil {
					keys += walk(kid, shift+mapBits, prefix|uint64(slot)<<shift)
				}
			}
			if keys != n.count || keys <= leafMax {
				t.Fatalf("inner node counts %d keys, holds %d (a leaf holds %d)", n.count, keys, leafMax)
			}
			return keys
		}
		if n.count != len(n.vals) || n.count == 0 || n.count > leafMax && shift < mapHashBits {
			t.Fatalf("leaf at shift %d counts %d keys, holds %d values", shift, n.count, len(n.vals))
		}
		var prev []byte
		var prevTag byte
		i := 0
		for off := 0; off < len(n.keys); i++ {
			tag := n.keys[off]
			var key []byte
			key, off = keyAt(n.keys, off)
			h := pmapHash(key)
			if uint64(h)&(1<<min(shift, mapHashBits)-1) != prefix || tag != keyTag(h) {
				t.Fatalf("key %q (hash %x, tag %x) under prefix %x at shift %d", key, h, tag, prefix, shift)
			}
			if i > 0 && (prevTag > tag || prevTag == tag && (len(prev) > len(key) ||
				len(prev) == len(key) && string(prev) >= string(key))) {
				t.Fatalf("leaf keys %q then %q", prev, key)
			}
			prev, prevTag = key, tag
		}
		if i != n.count {
			t.Fatalf("leaf of %d values decodes %d keys", n.count, i)
		}
		return i
	}
	count := 0
	if m.root != nil {
		count = walk(m.root, 0, 0)
	}
	if m.Len() != count {
		t.Fatalf("len %d, trie holds %d", m.Len(), count)
	}
	seen := 0
	m.Each(func(k string, _ V) bool {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("each visits %q, which get does not find", k)
		}
		seen++
		return true
	})
	if seen != count {
		t.Fatalf("each visited %d keys, trie holds %d", seen, count)
	}
}

// checkIndex compares a keyword-index-shaped Map with its model.
func checkIndex(t testing.TB, m Map[Postings], model map[string][]uint64) {
	t.Helper()
	checkTrie(t, m)
	if m.Len() != len(model) {
		t.Fatalf("len %d, want %d", m.Len(), len(model))
	}
	for k, want := range model {
		got, ok := m.Get(k)
		if !ok {
			t.Fatalf("key %q missing", k)
		}
		checkPostings(t, got, want)
	}
	var lens, valueLens []int
	m.Each(func(k string, p Postings) bool {
		if _, ok := model[k]; !ok {
			t.Fatalf("each visits %q, not in the model", k)
		}
		lens = append(lens, p.Len())
		return true
	})
	if len(lens) != len(model) {
		t.Fatalf("each visited %d keys, want %d", len(lens), len(model))
	}
	m.EachValue(func(p Postings) bool {
		valueLens = append(valueLens, p.Len())
		return true
	})
	if !slices.Equal(valueLens, lens) {
		t.Fatalf("EachValue visits lists of lengths %v, Each %v", valueLens, lens)
	}
	for _, k := range containerKeys() {
		if _, ok := m.Get(k + "?"); ok {
			t.Fatalf("absent key %q found", k+"?")
		}
	}
}

// runContainerOps decodes data as edit sessions over a Map[Postings] —
// the shape of the keyword index — and checks every sealed version against
// a plain map of sorted slices. Every third version is kept and checked
// again after all later edits: a sealed map, and the posting lists whose
// tails later versions extend in place, must never change.
//
// An op is three bytes (code, key, arg): add one ID to a key's list (the
// next ascending ID, or with an odd arg an earlier one, possibly present),
// add a run of arg ascending IDs, remove an ID, delete a key, or seal.
func runContainerOps(t testing.TB, data []byte) {
	data = data[:min(len(data), 3*4096)] // the checks at each seal walk everything
	keys := containerKeys()
	model := map[string][]uint64{}
	type version struct {
		m     Map[Postings]
		model map[string][]uint64
	}
	var kept []version
	var m Map[Postings]
	e := m.Edit()
	next, sealed := uint64(1), 0

	add := func(k string, id uint64) { // through Update or Get and Set, by the ID's parity
		if id%2 == 0 {
			e.Update(k, func(p Postings, ok bool) Postings {
				if _, had := model[k]; ok != had {
					t.Fatalf("update of %q: ok %v, the model has it %v", k, ok, had)
				}
				return p.With(id)
			})
		} else {
			p, _ := e.Get(k)
			e.Set(k, p.With(id))
		}
		if at, found := slices.BinarySearch(model[k], id); !found {
			model[k] = slices.Insert(model[k], at, id)
		}
	}
	seal := func() {
		m = e.Map
		checkIndex(t, m, model)
		if sealed++; sealed%3 == 0 {
			snap := make(map[string][]uint64, len(model))
			for k, ids := range model {
				snap[k] = slices.Clone(ids)
			}
			kept = append(kept, version{m, snap})
		}
		e = m.Edit()
	}
	for ; len(data) >= 3; data = data[3:] {
		k, arg := keys[int(data[1])%len(keys)], uint64(data[2])
		switch data[0] % 6 {
		case 0, 1:
			id := next
			if arg&1 == 1 {
				id = (arg*2654435761 + uint64(data[1])) % next
			} else {
				next++
			}
			add(k, id)
		case 2:
			for n := arg; n > 0 && next < 1<<13; n-- { // a few dozen chunks is every shape there is
				add(k, next)
				next++
			}
		case 3:
			ids := model[k]
			id := arg % next
			if len(ids) > 0 && arg&1 == 0 {
				id = ids[int(arg)*len(ids)/256]
			}
			p, _ := e.Get(k)
			if p = p.Without(id); p.Len() == 0 {
				e.Delete(k)
			} else {
				e.Set(k, p)
			}
			if at, found := slices.BinarySearch(ids, id); found {
				model[k] = slices.Delete(ids, at, at+1)
			}
			if len(model[k]) == 0 {
				delete(model, k)
			}
		case 4:
			e.Delete(k)
			delete(model, k)
		case 5:
			seal()
		}
		if got, _ := e.Get(k); got.Len() != len(model[k]) { // reads see the session's writes
			t.Fatalf("key %q mid-session: %d IDs, want %d", k, got.Len(), len(model[k]))
		}
	}
	seal()
	for _, v := range kept {
		checkIndex(t, v.m, v.model)
	}
}

// TestContainersAgainstModel is the differential test of the persistent
// map and posting list: long random op streams, then two written ones —
// a session that edits one key twice, and colliding keys inserted and
// removed in both orders.
func TestContainersAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 10; round++ {
		data := make([]byte, 3*(500+rng.Intn(3500)))
		rng.Read(data)
		runContainerOps(t, data)
	}

	var m Map[int]
	e := m.Edit()
	e.Set("twice", 1)
	root := e.root
	e.Set("twice", 2)
	if e.root != root {
		t.Fatal("second write of a session copied the node the first one allocated")
	}
	if v, _ := e.Get("twice"); v != 2 || e.Len() != 1 {
		t.Fatalf("twice = %d, len %d", v, e.Len())
	}
	if _, ok := m.Get("twice"); ok {
		t.Fatal("edit wrote through to its base")
	}

	// More keys of one hash than a leaf holds: a chain of single-child
	// inner nodes down to a leaf below the last hash bit, which every
	// delete down to leafMax keys folds back into one leaf at the root.
	equal := equalKeys()
	for _, k := range equal[1:] {
		if pmapHash(k) != pmapHash(equal[0]) {
			t.Fatalf("fixture: %q and %q hash differently", k, equal[0])
		}
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}} {
		base := Map[int]{}.Edit()
		for i, k := range equal {
			base.Set(k, i)
		}
		full := base.Map
		checkTrie(t, full)
		e := full.Edit()
		for n := range equal {
			e.Delete(equal[(n/4*4+order[n%4])%len(equal)])
			checkTrie(t, e.Map)
			if e.Len() != len(equal)-n-1 {
				t.Fatalf("len %d after %d deletes", e.Len(), n+1)
			}
			if e.Len() > 0 && e.Len() <= leafMax && e.root.keys == nil {
				t.Fatalf("%d keys of one hash not folded into a leaf", e.Len())
			}
		}
		if e.root != nil {
			t.Fatal("emptied map keeps a root")
		}
		for i, k := range equal {
			if v, ok := full.Get(k); !ok || v != i {
				t.Fatalf("base lost %q while its successor was emptied", k)
			}
		}
	}
}

// FuzzContainers feeds runContainerOps from the fuzzer.
func FuzzContainers(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 0, 0, 3, 0, 0})
	f.Add([]byte{2, 1, 255, 2, 1, 255, 5, 0, 0, 3, 1, 40, 0, 1, 7, 5, 0, 0})
	f.Add([]byte{0, 40, 0, 0, 41, 0, 5, 0, 0, 4, 40, 0, 4, 41, 0})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 900)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) { runContainerOps(t, data) })
}

// TestPostingsChunkEdges walks a long list through the edits the random
// streams rarely reach: an out-of-order insert into a full tail, which
// splits it, and a head chunk emptied one ID at a time until the head is
// gone.
func TestPostingsChunkEdges(t *testing.T) {
	var p Postings
	var model []uint64
	for id := uint64(2); id <= 2*(postChunk+postChunk); id += 2 { // a full head chunk and a full tail
		p = p.With(id)
		model = append(model, id)
	}
	checkPostings(t, p, model)
	if len(p.chunks()) != 1 || p.tailLen() != postChunk {
		t.Fatalf("fixture: %d head chunks and a tail of %d", len(p.chunks()), p.tailLen())
	}
	full := p
	p = p.With(2*postChunk + 3) // into the full tail
	model = slices.Insert(model, postChunk+1, 2*postChunk+3)
	checkPostings(t, p, model)
	if len(p.chunks()) != 2 {
		t.Fatalf("the full tail did not split: %d head chunks", len(p.chunks()))
	}
	checkPostings(t, full, slices.Delete(slices.Clone(model), postChunk+1, postChunk+2))
	for _, id := range slices.Clone(model[:postChunk]) { // the first head chunk, emptied
		p = p.Without(id)
		model = model[1:]
		checkPostings(t, p, model)
	}
	for len(model) > 0 { // the rest, from the top
		p = p.Without(model[len(model)-1])
		model = model[:len(model)-1]
		checkPostings(t, p, model)
	}
	if p != (Postings{}) {
		t.Fatalf("emptied list is %+v, not the zero value", p)
	}

	// ID 0 — one byte, the first of a head chunk — removed from the front.
	for id := uint64(0); id <= postChunk; id++ {
		p, model = p.With(id), append(model, id)
	}
	checkPostings(t, p, model)
	if len(p.chunks()) != 1 || p.Without(0).Len() != postChunk {
		t.Fatalf("fixture: %d head chunks; without ID 0, %d IDs", len(p.chunks()), p.Without(0).Len())
	}
	checkPostings(t, p.Without(0), model[1:])
}

// TestPostingsAllocations: a list of one ID is held in the value,
// allocated nowhere, and building a list by appends allocates no more
// often than the layout this one replaced, whose tail was a slice in the
// value (the counts it took are the bounds here).
func TestPostingsAllocations(t *testing.T) {
	var one, two Postings
	if allocs := testing.AllocsPerRun(100, func() { one = Postings{}.With(7) }); allocs != 0 || one.Len() != 1 {
		t.Fatalf("a one-ID list allocates %.0f objects (len %d)", allocs, one.Len())
	}
	two = one.With(9)
	if allocs := testing.AllocsPerRun(100, func() { one = two.Without(9) }); allocs != 0 || one.ids()[0] != 7 {
		t.Fatalf("shrinking to one ID allocates %.0f objects (%v)", allocs, one.ids())
	}
	for _, c := range []struct {
		n     int
		bound float64
	}{{1, 1}, {2, 2}, {3, 3}, {10, 5}, {256, 9}, {257, 12}, {1000, 42}, {5000, 218}} {
		allocs := testing.AllocsPerRun(10, func() {
			var p Postings
			for id := 1; id <= c.n; id++ {
				p = p.With(uint64(id))
			}
		})
		if allocs > c.bound {
			t.Errorf("%d appends allocate %.0f objects, want at most %.0f", c.n, allocs, c.bound)
		}
	}
}

// liveHeap returns the heap in use once the collector has settled.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for {
		last := m.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= last {
			return m.HeapAlloc
		}
	}
}

// TestMapFootprint bounds what an entry costs a map, everything counted:
// trie nodes, leaf slices, keys and values (and, for the keyword shape,
// the posting lists). Two shapes: the a-graph's node index, decimal keys
// to an int32, and the keyword index — six-letter words, three in four
// of them holding one ID. Each is built both ways a server builds one:
// a key per edit session, as commits do, and all in one session, as a
// load does. The CHAMP trie this replaced, with a boxed entry per key,
// took 56 to 59 bytes per node-index entry and 88 to 91 per keyword
// entry, not counting the keyword's string, which it shared with the
// caller; these take 18 to 20 and 36 to 40, key bytes included (45 to 48
// while a posting list held its IDs as 8-byte words).
func TestMapFootprint(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(3))
	words := make([]string, n)
	lists := make([][]uint64, n)
	for i := range words {
		b := make([]byte, 6)
		for j := range b {
			b[j] = 'a' + byte(rng.Intn(26))
		}
		words[i] = string(b) + strconv.Itoa(i%10) // distinct
		for id := uint64(1 + i); len(lists[i]) == 0 || rng.Intn(4) == 0 && len(lists[i]) < 8; id += n {
			lists[i] = append(lists[i], id)
		}
	}
	for _, c := range []struct {
		name  string
		bound float64
		build func(perKey bool) any
	}{
		{"node index", 24, func(perKey bool) any {
			e := Map[int32]{}.Edit()
			for i := 0; i < n; i++ {
				if perKey {
					e = e.Map.Edit()
				}
				e.Set(strconv.Itoa(1+i), int32(i))
			}
			return e.Map
		}},
		{"keyword index", 42, func(perKey bool) any {
			e := Map[Postings]{}.Edit()
			for i, w := range words {
				if perKey {
					e = e.Map.Edit()
				}
				var p Postings
				for _, id := range lists[i] {
					p = p.With(id)
				}
				e.Set(w, p)
			}
			return e.Map
		}},
	} {
		for _, perKey := range []bool{true, false} {
			before := liveHeap()
			m := c.build(perKey)
			per := float64(liveHeap()-before) / n
			t.Logf("%s, a session per key %v: %.1f bytes per entry", c.name, perKey, per)
			if per > c.bound {
				t.Errorf("%s, a session per key %v: %.1f bytes per entry, want at most %.0f", c.name, perKey, per, c.bound)
			}
			runtime.KeepAlive(m)
		}
	}
}

// TestMapReadersUnderEdits: readers Get and Each published maps, and walk
// their posting lists, while one writer's sessions append to those lists
// in place, insert keys that split leaves and delete keys that fold them.
// Every map a reader holds must read as the model published with it; the
// race detector checks that no write touches what a reader can reach.
func TestMapReadersUnderEdits(t *testing.T) {
	type version struct {
		m     Map[Postings]
		model map[string][]uint64
	}
	keys := containerKeys()
	var cur atomic.Pointer[version]
	cur.Store(&version{model: map[string][]uint64{}})
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := cur.Load()
				for k, want := range v.model {
					got, ok := v.m.Get(k)
					if !ok || !slices.Equal(got.ids(), want) {
						t.Errorf("key %q reads %v (%v), published with %v", k, got.ids(), ok, want)
						return
					}
				}
				seen := 0
				v.m.Each(func(k string, p Postings) bool {
					if want, ok := v.model[k]; ok && p.Len() == len(want) {
						seen++
					}
					return true
				})
				if seen != len(v.model) || v.m.Len() != len(v.model) {
					t.Errorf("each saw %d keys as published, len %d, model %d", seen, v.m.Len(), len(v.model))
					return
				}
				reads.Add(1)
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	next := uint64(1)
	for s := 0; s < 400 || reads.Load() < 50 && s < 20000; s++ {
		v := cur.Load()
		model := make(map[string][]uint64, len(v.model))
		for k, ids := range v.model {
			model[k] = slices.Clip(ids)
		}
		e := v.m.Edit()
		for op := 0; op < 1+rng.Intn(8); op++ {
			k := keys[rng.Intn(len(keys))]
			switch p, _ := e.Get(k); rng.Intn(5) {
			case 0, 1, 2: // append: in place while the tail has room
				e.Set(k, p.With(next))
				model[k] = append(model[k], next)
				next++
			case 3:
				if len(model[k]) > 1 {
					id := model[k][rng.Intn(len(model[k]))]
					e.Set(k, p.Without(id))
					model[k] = slices.DeleteFunc(slices.Clone(model[k]), func(x uint64) bool { return x == id })
					break
				}
				fallthrough
			default:
				e.Delete(k)
				delete(model, k)
			}
		}
		cur.Store(&version{e.Map, model})
	}
	close(done)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reader finished a pass")
	}
}

// TestPostingsReadersUnderAppends: readers decode older values of one
// posting list while the writer extends it in place — through every size
// class of a tail array and past the largest, with gaps of one to four
// bytes — through full tails joining the head, through an out-of-order
// insert that splits a full tail, and through appends to a value whose
// successor was dropped, which write over the dropped one's bytes. Each
// reader must decode exactly the IDs of the values it pinned; the race
// detector checks that no write reaches a byte a pinned value holds.
func TestPostingsReadersUnderAppends(t *testing.T) {
	type version struct {
		p   Postings
		ids []uint64
	}
	var cur atomic.Pointer[version]
	cur.Store(&version{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var pinned []*version
			for {
				select {
				case <-done:
					return
				default:
				}
				if v := cur.Load(); len(pinned) < 16 {
					pinned = append(pinned, v)
				} else {
					pinned[rng.Intn(len(pinned))] = v
				}
				for _, v := range pinned {
					if got := v.p.ids(); !slices.Equal(got, v.ids) || v.p.Len() != len(v.ids) {
						t.Errorf("a pinned list of %d IDs reads %d: %v", len(v.ids), len(got), got)
						return
					}
				}
				reads.Add(1)
			}
		}(rand.New(rand.NewSource(int64(r))))
	}

	rooms := map[int]bool{}
	for round := 0; round < 3 || reads.Load() < 50 && round < 1000; round++ {
		var p Postings
		var model []uint64
		next := uint64(0)
		publish := func() {
			checkPostings(t, p, model)
			if p.list != nil {
				rooms[len(p.list.tail)] = true
			}
			cur.Store(&version{p, slices.Clip(model)}) // later appends write past its end
		}
		appendTo := func(gap uint64, until func() bool) {
			for !until() {
				next += gap
				p, model = p.With(next), append(model, next)
				publish()
			}
		}
		joined := func(chunks int) func() bool { return func() bool { return len(p.chunks()) == chunks } }
		appendTo(1, joined(1))       // one-byte gaps: a tail through the small classes, then the head
		appendTo(1<<21+1, joined(2)) // four-byte gaps: through every class and past the largest
		appendTo(3, func() bool { return p.tailLen() == postChunk })
		mid := model[len(model)-postChunk/2] - 1 // into the full tail, which splits
		at, _ := slices.BinarySearch(model, mid)
		p, model = p.With(mid), slices.Insert(slices.Clone(model), at, mid)
		publish()
		if len(p.chunks()) != 3 || p.tailLen() != postChunk/2+1 {
			t.Fatalf("an insert into a full tail left %d head chunks and a tail of %d", len(p.chunks()), p.tailLen())
		}
		for i := 0; i < 40; i++ { // a successor dropped, in place or grown, then the value extended again
			_ = p.With(next + 1 + uint64(i%3)<<(7*uint(i%4)))
			want := len(model) + 1 + i%3
			appendTo(1+uint64(i%2)<<14, func() bool { return len(model) == want })
		}
	}
	close(done)
	wg.Wait()
	for _, room := range []int{16, 32, 64, 112, 208, 336, 464, 720, 976} {
		if !rooms[room] {
			t.Errorf("no tail array of %d bytes: the appends saw %v", room, rooms)
		}
	}
	if reads.Load() == 0 {
		t.Fatal("no reader finished a pass")
	}
}

// BenchmarkPostings: an append to the end of a list, amortized over
// building lists of 10k IDs (their tails' growth and joins to the head
// included), a delete from a head chunk of such a list, which copies that
// chunk and the spine, and a walk of every ID of it.
func BenchmarkPostings(b *testing.B) {
	const n = 10000
	var list Postings
	for id := uint64(1); id <= n; id++ {
		list = list.With(7 * id)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var p Postings
		for i := 0; i < b.N; i++ {
			if p.Len() == n {
				p = Postings{}
			}
			p = p.With(7 * uint64(p.Len()+1))
		}
	})
	b.Run("delete-head", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p := list.Without(7 * uint64(1+i%(n/2))); p.Len() != n-1 {
				b.Fatalf("a delete leaves %d IDs", p.Len())
			}
		}
	})
	b.Run("each", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum uint64
			list.Each(func(id uint64) bool {
				sum += id
				return true
			})
			if sum != 7*n*(n+1)/2 {
				b.Fatalf("sum %d", sum)
			}
		}
	})
}
