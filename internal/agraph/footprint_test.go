package agraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// These tests pin what the a-graph keeps per annotation, as counts and
// sizes, which do not depend on the host. The shape is the live
// benchmark's: a content root annotates one referent, which marks one of
// eight objects, one writer session per annotation.

// liveBytes returns the heap bytes still in use once a collection frees
// nothing more.
func liveBytes() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for {
		last := m.HeapAlloc
		time.Sleep(time.Millisecond)
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= last {
			return m.HeapAlloc
		}
	}
}

// buildAnnotationShaped returns the graph of n benchmark-shaped
// annotations over eight objects, added as a store's commits add them:
// the referent's mark first, then the content root's edge to it.
func buildAnnotationShaped(n int) Graph {
	var g Graph
	e := g.Edit()
	for d := 1; d <= 8; d++ {
		e.AddNode(Object("dna", fmt.Sprintf("seg%d", d)))
	}
	g = *e.Graph()
	objects := make([]NodeRef, 8)
	for d := range objects {
		objects[d] = Object("dna", fmt.Sprintf("seg%d", d+1))
	}
	domain := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 7)
	for i := 1; i <= n; i++ {
		e := g.Edit()
		ref := Referent(uint64(i))
		e.AddEdge(ref, objects[domain.Uint64()], LabelMarks)
		e.AddEdge(ContentRoot(uint64(i)), ref, LabelAnnotates)
		g = *e.Graph()
	}
	return g
}

const footprintAnns = 20000

// graphBytesPerAnnotation returns the live bytes per annotation of a
// graph of footprintAnns benchmark-shaped annotations, and the graph.
func graphBytesPerAnnotation() (float64, *Graph) {
	before := liveBytes()
	g := buildAnnotationShaped(footprintAnns)
	return float64(liveBytes()-before) / footprintAnns, &g
}

// TestGraphFootprint: what one annotation costs the a-graph of a store
// that holds twenty thousand — two nodes, their index entries and table
// slots, two edges. It was 0.40 KiB while a node was 152 bytes, carried
// its decimal key as a string and kept a label string per bucket.
func TestGraphFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 20k annotations")
	}
	per, g := graphBytesPerAnnotation()
	t.Logf("%.0f live bytes per annotation (%.3f KiB)", per, per/1024)
	if per > 0.22*1024 {
		t.Errorf("the a-graph keeps %.0f bytes live per annotation, want at most %.0f", per, 0.22*1024)
	}
	if g.NodeCount() != 2*footprintAnns+8 || g.EdgeCount() != 2*footprintAnns {
		t.Fatalf("%d nodes, %d edges", g.NodeCount(), g.EdgeCount())
	}
	runtime.KeepAlive(g)
}

// TestUnknownLabelsAddNothing: reads under ten thousand labels the graph
// never carried, a label of its own each — visits, counts and probes of
// the content root, referent and object of one annotation — match nothing
// and leave the label table, and the live bytes TestGraphFootprint
// counts, as they were.
func TestUnknownLabelsAddNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 20k annotations")
	}
	_, g := graphBytesPerAnnotation()
	content, ref := ContentRoot(1), Referent(1)
	var obj NodeRef
	g.OutEach(ref, func(e Edge) bool { obj = e.To; return false })
	at, ok := g.Lookup(content)
	if !ok || obj.Kind != ObjectNode {
		t.Fatalf("annotation 1: content root found %v, object %v", ok, obj)
	}
	labels := g.LabelCount()
	hostile := make([]EdgeLabel, 10000)
	for i := range hostile {
		hostile[i] = EdgeLabel(fmt.Sprintf("hostile%05d", i))
	}
	before := liveBytes()
	for _, l := range hostile {
		n := g.OutCount(content, l) + g.InCount(ref, l) + g.InCount(obj, l)
		count := func(Edge) bool { n++; return true }
		g.OutEach(content, count, l)
		g.InEach(obj, count, l, l)
		g.InEachAt(at, func(e Edge, _ NodeIndex) bool { return count(e) }, l)
		if n != 0 || g.HasEdgeBetween(content, ref, l) || g.HasEdgeBetween(ref, obj, l, "") {
			t.Fatalf("label %q matched %d edges", l, n)
		}
	}
	grew := float64(liveBytes()) - float64(before)
	if g.LabelCount() != labels || g.LabelCount() != 2 {
		t.Errorf("the label table went from %d to %d labels", labels, g.LabelCount())
	}
	if grew/footprintAnns >= 1 {
		t.Errorf("reads under unknown labels left %.0f bytes live, %.2f per annotation", grew, grew/footprintAnns)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(hostile)
}
