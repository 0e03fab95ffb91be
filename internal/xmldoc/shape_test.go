package xmldoc

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tableSize returns the number of entries in the intern table.
func tableSize() int {
	shapes.Lock()
	defer shapes.Unlock()
	return len(shapes.m)
}

// settledTableSize collects until the intern table stops shrinking: a
// collection clears the weak pointers of dead shapes, and their cleanups
// drop the entries on a goroutine of their own.
func settledTableSize(t *testing.T, want func(int) bool) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	last := -1
	for {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n := tableSize()
		if want(n) && n == last {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("the intern table still holds %d shapes", n)
		}
		last = n
	}
}

// liveHeap returns the live heap once collections stop shrinking it.
func liveHeap() uint64 {
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

// TestShapeTableReleases: documents with names no other document has each
// enter a shape, and once they are dropped and collected the table is back
// at the size it had: hostile tag names cannot grow it for good. Each
// document is encoded once, so each shape also keeps a skeleton and a
// memo; once they are collected the live heap is back where it was too.
// The first round sizes the table's map, which keeps its capacity; the
// second is measured.
func TestShapeTableReleases(t *testing.T) {
	const docs = 10000
	keyed := NewShapeMemo(func(d *Document) string { return d.Root.FirstChild().Name() })
	round := func(r int) {
		base := settledTableSize(t, func(int) bool { return true })
		keep := make([]*Document, docs)
		for i := range keep {
			d := NewDocument("annotation")
			d.AddElementText(d.Root, fmt.Sprintf("tag%d-%05d", r, i), "v")
			d.Root.SetAttr(fmt.Sprintf("attr%05d", i), "w")
			d.Seal()
			if d.AppendJSON(nil) == nil || keyed.Get(d) != fmt.Sprintf("tag%d-%05d", r, i) {
				t.Fatalf("document %d: no JSON form or a wrong memo", i)
			}
			keep[i] = d
		}
		if got := tableSize(); got < base+docs {
			t.Fatalf("%d documents of distinct shapes left %d shapes in the table, want at least %d", docs, got, base+docs)
		}
		for i := 1; i < docs; i++ {
			if SameShape(keep[0], keep[i]) {
				t.Fatalf("documents 0 and %d share a shape:\n%s\n%s", i, keep[0], keep[i])
			}
		}
		runtime.KeepAlive(keep)
		keep = nil
		if got := settledTableSize(t, func(n int) bool { return n <= base }); got != base {
			t.Fatalf("the table holds %d shapes once the documents are gone, want %d", got, base)
		}
	}
	round(0)
	before := liveHeap()
	round(1)
	grown := int64(liveHeap()) - int64(before)
	t.Logf("%d documents of shapes of their own, encoded and collected: the live heap grew by %d bytes", docs, grown)
	if grown > 64<<10 {
		t.Errorf("the live heap grew by %d KiB, want at most 64", grown>>10)
	}
}

// TestSealedDocumentIsImmutable: every write to a sealed document panics
// and leaves it as it was, whether Seal or Parse sealed it; handles taken
// before sealing still read it.
func TestSealedDocumentIsImmutable(t *testing.T) {
	built := NewDocument("a")
	b := built.AddElementText(built.Root, "b", "text")
	b.SetAttr("k", "v")
	built.Seal()
	built.Seal() // a second Seal does nothing
	parsed, err := Parse(strings.NewReader(`<a><b k="v">text</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(built, parsed) {
		t.Fatal("one document built and parsed have different shapes")
	}
	if v, ok := b.Attr("k"); !ok || v != "v" || b.Text() != "text" || b.Path() != "/a/b" {
		t.Fatalf("a handle taken before Seal reads %q %v %q %q", v, ok, b.Text(), b.Path())
	}
	for _, d := range []*Document{built, parsed} {
		want := d.String()
		el := d.Root.FirstChild()
		writes := map[string]func(){
			"AddElement":        func() { d.AddElement(d.Root, "c") },
			"AddText":           func() { d.AddText(d.Root, "more") },
			"AddElementText":    func() { d.AddElementText(el, "c", "x") },
			"SetAttr replacing": func() { el.SetAttr("k", "w") },
			"SetAttr adding":    func() { el.SetAttr("l", "w") },
			"SetAttr on root":   func() { d.Root.SetAttr("k", "w") },
			"a comment":         func() { _ = d.AppendChild(el, d.CreateComment("c")) },
		}
		for name, write := range writes {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a sealed document did not panic", name)
					}
				}()
				write()
			}()
			if got := d.String(); got != want {
				t.Fatalf("%s changed a sealed document:\n%s\nwant\n%s", name, got, want)
			}
		}
	}
}

// TestConcurrentSeals: goroutines that build and seal documents at once —
// some of one shape, some of shapes of their own, collected as they go —
// end with one shape per structure, each reading as built.
func TestConcurrentSeals(t *testing.T) {
	const workers, docs = 4, 300
	built := make([][]*Document, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range docs {
				d := NewDocument("annotation")
				d.Root.SetAttr("id", fmt.Sprint(i))
				d.AddElementText(d.Root, "body", fmt.Sprintf("w%d", w))
				if i%3 == 0 {
					d.AddElement(d.Root, fmt.Sprintf("own%d-%d", w, i)) // dropped below
				}
				d.Seal()
				if i%3 != 0 {
					built[w] = append(built[w], d)
				}
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	first := built[0][0]
	for w, ds := range built {
		for _, d := range ds {
			if !SameShape(first, d) {
				t.Fatalf("worker %d: a document has a shape of its own:\n%s", w, d)
			}
			if body := d.Root.FirstChildElement("body").Text(); body != fmt.Sprintf("w%d", w) {
				t.Fatalf("worker %d: body %q", w, body)
			}
		}
	}
}
