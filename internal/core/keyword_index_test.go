package core

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/cow"
	"graphitti/internal/ontology"
	"graphitti/internal/xmldoc"
)

// TestKeywordIndexVsScanEveryWord is the differential test of the keyword
// index. A seeded stream of benchmark-shaped commits, their marks in a
// narrow range so that short lists of positions are common, is followed,
// one commit in eight, by a delete: mostly of the oldest annotation, which
// empties the frequent words' first head chunks, else of the newest, which
// drains a tail that has just joined the head, or of one at random, which
// turns short lists back into single IDs. Then the index must hold exactly
// the annotations' keywords, and answer each as a scan of every document
// (scanKeyword) does — on the final view and on one pinned halfway
// through the stream, whose lists later appends extended in place.
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
			for _, w := range ann.keywords() {
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
					idx, scan := c.v.SearchKeyword(w), scanKeyword(c.v, w)
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

// scanKeyword is the document scan the keyword index answers in place of,
// kept as its oracle: the annotations of v of which word is a keyword
// (Annotation.HasToken), in ID order.
func scanKeyword(v *View, word string) []*Annotation {
	var out []*Annotation
	token := NormalizeKeyword(word)
	v.annotations.Each(func(_ uint64, ann *Annotation) bool {
		if ann.HasToken(token) {
			out = append(out, ann)
		}
		return true
	})
	return out
}

// TestHasKeyword holds Annotation.HasToken of a normalized word to
// membership in the annotation's keywords: every keyword, the same words
// in other cases, padded and cut short, and every token of the document,
// the printed ones among them. A printed value alone — the referent's kind and object
// type, the annotation's ID — is not a keyword. No answer to a lower-case
// word allocates.
func TestHasKeyword(t *testing.T) {
	s := benchmarkStore(t)
	o := ontology.New("go")
	_, err := o.AddTerm("GO:0004672", "protein kinase activity")
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterOntology(o))
	for _, b := range benchmarkShaped(50, 4000) {
		_, err := s.Commit(b.Tag("note", "Kinase--activity suspected_here").OntologyRef("go", "GO:0004672"))
		mustNoErr(t, err)
	}
	for _, ann := range s.View().Annotations() {
		kws := ann.keywords()
		probes := []string{"", " ", "-", "segment1", "interval", "dna_sequences"}
		for _, w := range kws {
			probes = append(probes, w, strings.ToUpper(w), " "+w, w+" ", w[:len(w)-1], w+"x")
		}
		for v := range ann.Content.Root.Slots().All {
			probes = xmldoc.AppendTokens(probes, v)
		}
		for _, p := range probes {
			if got, want := ann.HasToken(NormalizeKeyword(p)), slices.Contains(kws, NormalizeKeyword(p)); got != want {
				t.Fatalf("annotation %d: HasToken(NormalizeKeyword(%q)) = %v, keywords %q", ann.ID, p, got, kws)
			}
		}
		for _, printed := range []string{"interval", "dna_sequences", strconv.FormatUint(ann.ID, 10)} {
			if ann.HasToken(printed) {
				t.Fatalf("annotation %d: the printed %q is a keyword: %q", ann.ID, printed, kws)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { ann.HasToken(NormalizeKeyword(" kinase--activity ")) }); allocs != 0 {
			t.Fatalf("HasToken allocates %.0f objects", allocs)
		}
	}
}
