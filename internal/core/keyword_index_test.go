package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graphitti/internal/cow"
)

// TestKeywordIndexVsScanEveryWord is the differential test of the keyword
// index. A seeded stream of benchmark-shaped commits, their marks in a
// narrow range so that short lists of positions are common, is followed,
// one commit in eight, by a delete: mostly of the oldest annotation, which
// empties the frequent words' first head chunks, else of the newest, which
// drains a tail that has just joined the head, or of one at random, which
// turns short lists back into single IDs. Then the index must hold exactly
// the words of the documents, and answer each as a scan of every document
// does — on the final view and on one pinned halfway through the stream,
// whose lists later appends extended in place.
func TestKeywordIndexVsScanEveryWord(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 600
	}
	s := benchmarkStore(t)
	rng := rand.New(rand.NewSource(48))
	var live []uint64 // ascending
	var half *View
	for i, b := range benchmarkShaped(n, 4000) {
		ann, err := s.Commit(b)
		mustNoErr(t, err)
		live = append(live, ann.ID)
		if rng.Intn(8) == 0 {
			k := [...]int{0, 0, 0, 0, 0, 0, len(live) - 1, rng.Intn(len(live))}[rng.Intn(8)]
			mustNoErr(t, s.DeleteAnnotation(live[k]))
			live = slices.Delete(live, k, k+1)
		}
		if i == n/2 {
			half = s.View()
		}
	}
	for _, c := range []struct {
		name string
		v    *View
	}{{"the final view", s.View()}, {"a view pinned halfway", half}} {
		held := map[string]bool{}
		for _, ann := range c.v.Annotations() {
			for _, w := range ann.Content.Keywords() {
				held[w] = true
			}
		}
		var words []string
		c.v.keywordIdx.Each(func(w string, _ cow.Postings) bool {
			if !held[w] {
				t.Fatalf("%s indexes %q, which no document holds", c.name, w)
			}
			words = append(words, w)
			return true
		})
		if len(words) != len(held) {
			t.Fatalf("%s indexes %d words, its documents hold %d", c.name, len(words), len(held))
		}
		var wg sync.WaitGroup
		for part := range 2 { // a scan per word: two workers share them
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, w := range words[part*len(words)/2 : (part+1)*len(words)/2] {
					idx, scan := c.v.SearchKeyword(w, true), c.v.SearchKeyword(w, false)
					if !slices.Equal(idx, scan) {
						t.Errorf("%s: the index answers %q with %d annotations, a scan with %d",
							c.name, w, len(idx), len(scan))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
