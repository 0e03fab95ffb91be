package cow

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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

// containerKeys is the key pool of the container tests: plain words, two
// pairs of keys whose 32-bit hashes are equal (they end up in a bucket
// node below the last trie level), and keys that agree on the low 25 hash
// bits (a path five single-child nodes deep).
var containerKeys = sync.OnceValue(func() []string {
	var keys []string
	for i := 0; i < 40; i++ {
		keys = append(keys, fmt.Sprintf("word%02d", i))
	}
	full, low := map[uint32]string{}, map[uint32]string{}
	var equal, deep []string
	for i := 0; len(equal) < 4 || len(deep) < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		h := pmapHash(k)
		if other, ok := full[h]; ok && len(equal) < 4 {
			equal = append(equal, k, other)
		} else if other, ok := low[h&(1<<25-1)]; ok && len(deep) < 8 {
			deep = append(deep, k, other)
		}
		full[h], low[h&(1<<25-1)] = k, k
	}
	return append(append(keys, equal...), deep...)
})

// checkPostings verifies a posting list's shape and contents.
func checkPostings(t testing.TB, p Postings, want []uint64) {
	t.Helper()
	if got := p.ids(); !slices.Equal(got, want) || p.Len() != len(want) {
		t.Fatalf("Postings %v (len %d), want %v", got, p.Len(), want)
	}
	n := 0
	for _, c := range p.chunks() {
		if len(c) == 0 || len(c) > postChunk {
			t.Fatalf("head chunk of %d IDs", len(c))
		}
		n += len(c)
	}
	if p.head != nil && (n != p.head.n || n == 0) {
		t.Fatalf("head counts %d IDs, holds %d", p.head.n, n)
	}
	if len(p.tail) > postChunk {
		t.Fatalf("tail of %d IDs", len(p.tail))
	}
}

// checkTrie verifies the structural invariants of a Map: bitmaps match
// the arrays, every key sits where its hash says, no node carries a later
// stamp than the map, the shape is canonical and the count is right.
func checkTrie[V any](t testing.TB, m Map[V]) {
	t.Helper()
	count := 0
	var walk func(n *pnode[V], shift uint, prefix uint32) int
	walk = func(n *pnode[V], shift uint, prefix uint32) int {
		if n.stamp>>pnodeFlagBits > m.gen {
			t.Fatalf("node stamped %d in a map of generation %d", n.stamp>>pnodeFlagBits, m.gen)
		}
		if shift >= pmapHashBits {
			if n.datamap != 0 || n.nodemap != 0 || len(n.kids) != 0 {
				t.Fatalf("bucket node with bitmaps %x/%x and %d kids", n.datamap, n.nodemap, len(n.kids))
			}
			for _, e := range n.entries {
				if pmapHash(e.key) != prefix {
					t.Fatalf("key %q in the bucket of hash %x", e.key, prefix)
				}
			}
			return len(n.entries)
		}
		if n.datamap&n.nodemap != 0 || bits.OnesCount32(n.datamap) != len(n.entries) || bits.OnesCount32(n.nodemap) != len(n.kids) {
			t.Fatalf("bitmaps %x/%x over %d entries, %d kids", n.datamap, n.nodemap, len(n.entries), len(n.kids))
		}
		keys, di, ki := 0, 0, 0
		for slot := uint32(0); slot <= pmapMask; slot++ {
			at := prefix | slot<<shift
			switch bit := uint32(1) << slot; {
			case n.datamap&bit != 0:
				if h := pmapHash(n.entries[di].key); h&(1<<(shift+pmapBits)-1) != at {
					t.Fatalf("key %q (hash %x) under prefix %x at shift %d", n.entries[di].key, h, at, shift)
				}
				di++
				keys++
			case n.nodemap&bit != 0:
				below := walk(n.kids[ki], shift+pmapBits, at)
				if below < 2 {
					t.Fatalf("child holding %d keys was not folded into its parent", below)
				}
				ki++
				keys += below
			}
		}
		return keys
	}
	if m.root != nil {
		count = walk(m.root, 0, 0)
	}
	if count != m.count || m.Len() != count {
		t.Fatalf("count %d, trie holds %d", m.count, count)
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
	seen := 0
	m.Each(func(k string, _ Postings) bool {
		if _, ok := model[k]; !ok {
			t.Fatalf("each visits %q, not in the model", k)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("each visited %d keys, want %d", seen, len(model))
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

	add := func(k string, id uint64) {
		p, _ := e.Get(k)
		e.Set(k, p.With(id))
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

	keys := containerKeys()
	collide := keys[40:44] // two pairs of equal hashes
	if pmapHash(collide[0]) != pmapHash(collide[1]) || pmapHash(collide[2]) != pmapHash(collide[3]) {
		t.Fatalf("fixture: %q do not collide pairwise", collide)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}} {
		base := Map[int]{}.Edit()
		for i, k := range collide {
			base.Set(k, i)
		}
		full := base.Map
		checkTrie(t, full)
		e := full.Edit()
		for n, i := range order {
			e.Delete(collide[i])
			checkTrie(t, e.Map)
			if e.Len() != len(collide)-n-1 {
				t.Fatalf("len %d after %d deletes", e.Len(), n+1)
			}
		}
		if e.root != nil {
			t.Fatal("emptied map keeps a root")
		}
		for i, k := range collide {
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
