package agraph

import "sync"

// The traversal arena: reusable epoch-stamped visited/parent/component
// storage indexed by dense node index, plus the BFS frontier. Arenas are
// pooled, so steady-state traversals (FindPath, Connect, ReachableEach)
// allocate nothing beyond their results: a fresh map[NodeRef]parentLink
// per BFS used to dominate both the time and the allocation profile of
// the path/connect primitives. An arena holds indices and edge IDs only,
// nothing of the graph it last served.

// parentLink records how a node was first reached during a traversal:
// from node prev, over the edge with this id in prev's bucket via (see
// adjacency.each). A traversal's roots have id 0, which no edge has.
type parentLink struct {
	prev, via int32
	id        uint64
}

type arena struct {
	epoch  uint32
	seen   []uint32     // seen[i] == epoch ⇔ node i visited this traversal
	parent []parentLink // valid only where seen
	comp   []int32      // claiming-terminal index (Connect); valid only where seen
	queue  []int32      // BFS frontier, consumed by index (no pop-front copying)
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenas.Get().(*arena) }

// reset prepares the arena for a traversal over n dense indices.
func (a *arena) reset(n int) {
	if len(a.seen) < n {
		a.seen = make([]uint32, n)
		a.parent = make([]parentLink, n)
		a.comp = make([]int32, n)
		a.epoch = 0
	}
	a.epoch++
	if a.epoch == 0 { // epoch counter wrapped: wipe stamps and restart
		clear(a.seen)
		a.epoch = 1
	}
	a.queue = a.queue[:0]
}

func (a *arena) seenAt(i int32) bool { return a.seen[i] == a.epoch }

func (a *arena) mark(i int32, link parentLink) {
	a.seen[i] = a.epoch
	a.parent[i] = link
}
