package httpapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/workload"
	"graphitti/internal/xmldoc"
)

// studyWords tokenizes the content documents of v's annotations: by word,
// the IDs of the annotations whose annotators wrote it — a value of
// <meta>, <body>, <tags> or <ontologyRefs> — and the words the store
// prints into some document, in its root's id or its <referents> stanza.
func studyWords(v *core.View) (written map[string][]uint64, printed map[string]bool) {
	written, printed = map[string][]uint64{}, map[string]bool{}
	tokens := func(r xmldoc.Slots) (words []string) {
		for val := range r.All {
			words = xmldoc.AppendTokens(words, val)
		}
		return words
	}
	for _, ann := range v.Annotations() {
		root := ann.Content.Root
		var mine []string
		for el := root.FirstChild(); el.Valid(); el = el.NextSibling() {
			if el.Name() == "referents" {
				for _, w := range tokens(el.Slots()) {
					printed[w] = true
				}
			} else {
				mine = append(mine, tokens(el.Slots())...)
			}
		}
		for _, w := range tokens(root.Slots().Slice(0, root.NumAttrs())) {
			printed[w] = true
		}
		slices.Sort(mine)
		for _, w := range slices.Compact(mine) {
			written[w] = append(written[w], ann.ID)
		}
	}
	return written, printed
}

// TestKeywordAnswersPinned: GET /api/annotations?keyword= answers the
// words annotators wrote in the influenza study of 400 annotations and in
// the neuro study of 12 images — the servers' default studies. A word no
// document prints answers with the bytes it answered while the printed
// values were keywords too: per study, testdata/keyword-answers.golden
// holds the number of such words and one SHA-256 of them all, each word
// followed by its answer, in word order. A word the store also prints (a
// title's number, "region", an image's ID) answers with exactly the
// annotations that wrote it.
func TestKeywordAnswersPinned(t *testing.T) {
	neuro, err := workload.Neuroscience(workload.DefaultNeuro)
	if err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	for _, study := range []struct {
		name  string
		store *core.Store
	}{{"influenza", influenzaStore(t, 400)}, {"neuro", neuro.Store}} {
		h := New(memorySet(study.store), Options{})
		written, printed := studyWords(study.store.View())
		words := slices.Sorted(maps.Keys(written))
		sum, pinned := sha256.New(), 0
		for _, w := range words {
			rr := serve(h, "GET", "/api/annotations?keyword="+url.QueryEscape(w), "")
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: ?keyword=%s answered %d: %s", study.name, w, rr.Code, rr.Body.Bytes())
			}
			if !printed[w] {
				fmt.Fprintf(sum, "%s\n%s", w, rr.Body.Bytes())
				pinned++
				continue
			}
			var got []struct{ ID uint64 }
			if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			var ids []uint64
			for _, a := range got {
				ids = append(ids, a.ID)
			}
			if !slices.Equal(ids, written[w]) {
				t.Errorf("%s: ?keyword=%s answers %v, its writers are %v", study.name, w, ids, written[w])
			}
		}
		fmt.Fprintf(&golden, "%s %d words printed nowhere %x\n", study.name, pinned, sum.Sum(nil))
		t.Logf("%s: %d words written, %d of them printed too", study.name, len(words), len(words)-pinned)
	}
	path := filepath.Join("testdata", "keyword-answers.golden")
	if *update {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.Bytes(), want) {
		t.Errorf("keyword answers differ from %s:\n%s", path, golden.Bytes())
	}
}

// TestPrintedTokensAreNotKeywords: the values the store prints into a
// content document — the annotation's ID and its referent's ID, kind,
// object type, object, domain and interval bounds — are not words an
// annotator wrote, so ?keyword= answers each of them empty; the marks
// are found through /api/referents. A word of the body still answers.
func TestPrintedTokensAreNotKeywords(t *testing.T) {
	s := core.NewStore()
	sq, err := seq.New("chrP", seq.DNA, strings.Repeat("ACGT", 1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	m, err := s.View().MarkSequenceInterval("chrP", interval.Interval{Lo: 1234, Hi: 1300})
	if err != nil {
		t.Fatal(err)
	}
	ann, err := s.Commit(s.NewAnnotation().Creator("gupta").Date("2008-01-01").Body("protease site").Refer(m))
	if err != nil {
		t.Fatal(err)
	}
	var refID uint64
	for id := range ann.ReferentIDs {
		refID = id
	}
	ref, err := s.View().Referent(refID)
	if err != nil {
		t.Fatal(err)
	}
	h := New(memorySet(s), Options{})
	if rr := serve(h, "GET", "/api/annotations?keyword=protease", ""); rr.Code != http.StatusOK ||
		!bytes.Contains(rr.Body.Bytes(), []byte(`"id":`+strconv.FormatUint(ann.ID, 10))) {
		t.Fatalf("?keyword=protease answered %d: %s", rr.Code, rr.Body.Bytes())
	}
	for _, w := range []string{
		strconv.FormatUint(ann.ID, 10), strconv.FormatUint(ref.ID, 10), ref.Kind.String(),
		string(ref.ObjectType), ref.ObjectID, ref.Domain,
		strconv.FormatInt(ref.Interval.Lo, 10), strconv.FormatInt(ref.Interval.Hi, 10),
	} {
		if rr := serve(h, "GET", "/api/annotations?keyword="+url.QueryEscape(w), ""); rr.Code != http.StatusOK || rr.Body.String() != "[]\n" {
			t.Errorf("?keyword=%s answered %d with %d bytes, want []", w, rr.Code, rr.Body.Len())
		}
	}
}
