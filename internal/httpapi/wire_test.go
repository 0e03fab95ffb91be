package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// annotationView and viewOf are the projection the routes used to build
// and hand to encoding/json. They live on as the oracle: whatever the wire
// encoder writes must be byte for byte what json.Encoder writes for these.
type annotationView struct {
	ID       uint64         `json:"id"`
	Creator  string         `json:"creator"`
	Date     string         `json:"date"`
	Title    string         `json:"title,omitempty"`
	Terms    []core.TermRef `json:"terms,omitempty"`
	Referent []uint64       `json:"referents,omitempty"`
	XML      string         `json:"xml"`
}

func viewOf(ann *core.Annotation) annotationView {
	return annotationView{
		ID:       ann.ID,
		Creator:  ann.DC.First("creator"),
		Date:     ann.DC.First("date"),
		Title:    ann.DC.First("title"),
		Terms:    ann.Terms,
		Referent: ann.ReferentIDs,
		XML:      ann.Content.String(),
	}
}

func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refOne and refList are the reference bodies of the single-annotation
// and the list routes.
func refOne(t testing.TB, ann *core.Annotation) []byte { return refEncode(t, viewOf(ann)) }

func refList(t testing.TB, anns []*core.Annotation) []byte {
	views := make([]annotationView, 0, len(anns))
	for _, ann := range anns {
		views = append(views, viewOf(ann))
	}
	return refEncode(t, views)
}

// serve runs one request through h in process.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rr
}

// wantBody fails unless the response is a 200 carrying exactly want, with
// the matching Content-Length.
func wantBody(t testing.TB, what string, rr *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d (%s)", what, rr.Code, rr.Body.Bytes())
	}
	if got := rr.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding/json's\n got %q\nwant %q", what, got, want)
	}
	if cl := rr.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
		t.Fatalf("%s: Content-Length %q for %d bytes", what, cl, len(want))
	}
}

// wireStore is an empty store that can hold the wire tests' annotations:
// one interval domain and an ontology whose term IDs need escaping too.
func wireStore(t testing.TB) *core.Store {
	t.Helper()
	s := core.NewStore()
	sq, err := seq.New("NC_wire", seq.DNA, strings.Repeat("ACGT", 50))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "w"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	o := ontology.New(`on<t>&"o`)
	for _, id := range wireTerms {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	return s
}

var wireTerms = []string{"GO:1", "t<&>\u2028\"", "plain"}

// wireCase is one annotation's variable parts.
type wireCase struct {
	creator, title, body, tag string
	refs, terms               int
}

func (c wireCase) commit(t testing.TB, s *core.Store) *core.Annotation {
	t.Helper()
	b := s.NewAnnotation().Creator(c.creator).Date("2026-10-02").Body(c.body)
	if c.title != "" {
		b.Title(c.title)
	}
	if c.tag != "" {
		b.Tag("note", c.tag)
	}
	for i := 0; i < c.refs; i++ {
		m, err := s.MarkDomainInterval("w", interval.Interval{Lo: int64(10 * i), Hi: int64(10*i + 5)})
		if err != nil {
			t.Fatal(err)
		}
		b.Refer(m)
	}
	for i := 0; i < c.terms; i++ {
		b.OntologyRef(`on<t>&"o`, wireTerms[i%len(wireTerms)])
	}
	ann, err := s.Commit(b)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

// checkWire commits the cases into a fresh store and compares the single
// and the list form of every annotation with the reference encoding,
// twice: the first pass encodes, the second copies the kept fragments.
func checkWire(t testing.TB, cases ...wireCase) {
	t.Helper()
	s := wireStore(t)
	h := NewHandler(s)
	wantBody(t, "empty store", serve(h, "GET", "/api/annotations", ""), []byte("[]\n"))
	var anns []*core.Annotation
	for _, c := range cases {
		anns = append(anns, c.commit(t, s))
	}
	for _, pass := range []string{"encoded", "kept"} {
		wantBody(t, pass+" list", serve(h, "GET", "/api/annotations", ""), refList(t, anns))
		for _, ann := range anns {
			if ann.Encoded() == "" {
				t.Fatalf("annotation %d: a read kept no fragment", ann.ID)
			}
			wantBody(t, fmt.Sprintf("%s get %d", pass, ann.ID),
				serve(h, "GET", fmt.Sprintf("/api/annotations/%d", ann.ID), ""), refOne(t, ann))
		}
	}
}

func TestAnnotationWireMatchesEncodingJSON(t *testing.T) {
	checkWire(t,
		wireCase{creator: "gupta", title: "plain", body: "protease cleavage site", refs: 1},
		wireCase{creator: "", body: "no title, empty creator", refs: 1},
		wireCase{creator: `<>&"'\`, title: `<>&"'\`, body: `<>&"'\`, tag: `<>&"'\`, refs: 3, terms: 2},
		wireCase{creator: "ctl\x00\x01\b\f\n\r\t\x1f\x7f", title: "\x00", body: "a\tb\nc\rd", tag: "\x1b[0m", terms: 1},
		wireCase{creator: "sep\u2028\u2029", title: "\u2028", body: "x\u2029y", tag: "\u2028\u2029", refs: 1, terms: 3},
		wireCase{creator: "bad\xff\xc3", title: "\xe2\x82", body: "ok\xf0\x9f\x98&\xed\xa0\x80", tag: "\xc0\xaf", refs: 2},
		wireCase{creator: "é😀\u00a0", title: "ünïcode", body: "日本語 text", refs: 1, terms: 1},
		wireCase{creator: "many", body: "many referents", refs: 12},
	)
}

// FuzzAnnotationWire: for any creator, title, body and tag strings and
// any mix of referents and terms, the encoder's single and list forms
// equal encoding/json's, cold and from the kept fragment.
func FuzzAnnotationWire(f *testing.F) {
	f.Add("gupta", "title", "body text", "tag", uint8(1), uint8(0))
	f.Add(`<>&"'\`, `</title>`, `a & b < c`, `"quoted"`, uint8(3), uint8(2))
	f.Add("\x00\x1f\x7f", "", "\b\f\n\r\t", "\u2028\u2029", uint8(0), uint8(1))
	f.Add("\xff\xfe", "\xe2\x82", "\xf0\x9f\x98", "\xc0\xaf\xed\xa0\x80", uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, creator, title, body, tag string, refs, terms uint8) {
		c := wireCase{creator, title, body, tag, int(refs % 5), int(terms % 4)}
		if c.refs == 0 && c.terms == 0 {
			c.refs = 1 // an annotation refers to something
		}
		checkWire(t, c, wireCase{creator: "second", body: "so the list has a comma", refs: 1})
	})
}

// TestAnnotationRoutesShareTheEncoder: every route that answers with
// annotations — related, keyword, search, query, get, the full list and
// the create's own answer — writes what the reference encoding writes,
// whether the fragments were kept by another route or not.
func TestAnnotationRoutesShareTheEncoder(t *testing.T) {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 40
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := study.Store
	h := NewHandler(s)
	for pass := 0; pass < 2; pass++ {
		rel, err := s.RelatedAnnotations(1)
		if err != nil {
			t.Fatal(err)
		}
		wantBody(t, "related", serve(h, "GET", "/api/annotations/1/related", ""), refList(t, rel))
		wantBody(t, "keyword", serve(h, "GET", "/api/annotations?keyword=protease", ""),
			refList(t, s.SearchKeyword("protease", true)))
		found, err := s.View().SearchContents(`contains(/annotation/body, "protease")`)
		if err != nil || len(found) == 0 {
			t.Fatalf("search oracle: %d hits, %v", len(found), err)
		}
		wantBody(t, "search", serve(h, "POST", "/api/search",
			`{"expr":"contains(/annotation/body, \"protease\")"}`), refList(t, found))

		rr := serve(h, "POST", "/api/query", `{"query":"select contents where { ?a isa annotation ; contains \"protease\" . ?r isa referent ; kind interval . ?a annotates ?r . }"}`)
		var q struct {
			Matches     int             `json:"matches"`
			Annotations json.RawMessage `json:"annotations"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &q); err != nil || q.Matches == 0 {
			t.Fatalf("query: %v (%s)", err, rr.Body.Bytes())
		}
		if want := bytes.TrimSuffix(refList(t, s.SearchKeyword("protease", true)), []byte("\n")); !bytes.Equal(q.Annotations, want) {
			t.Fatalf("query annotations differ from encoding/json's\n got %s\nwant %s", q.Annotations, want)
		}
	}

	rr := serve(h, "POST", "/api/annotations", fmt.Sprintf(
		`{"creator":"a<b","date":"2026-10-02","title":"t&t","body":"posted","marks":[{"type":"sequence","seqId":%q,"lo":1,"hi":9}]}`,
		study.SequenceIDs[0]))
	if rr.Code != http.StatusCreated {
		t.Fatalf("create: %d (%s)", rr.Code, rr.Body.Bytes())
	}
	anns := s.Annotations()
	created := anns[len(anns)-1]
	if want := refOne(t, created); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("create answered %q, want %q", rr.Body.Bytes(), want)
	}
	if created.Encoded() != "" {
		t.Fatal("the answer to a create kept a fragment")
	}
}

// TestEmptyListsAreArrays: a route that answers with a JSON array answers
// [] when there is nothing to list, never null.
func TestEmptyListsAreArrays(t *testing.T) {
	empty := NewHandler(core.NewStore())
	wantBody(t, "empty store, full list", serve(empty, "GET", "/api/annotations", ""), []byte("[]\n"))
	wantBody(t, "empty store, keyword", serve(empty, "GET", "/api/annotations?keyword=x", ""), []byte("[]\n"))
	h := NewHandler(smallStore(t))
	wantBody(t, "keyword without a hit", serve(h, "GET", "/api/annotations?keyword=no-such-word", ""), []byte("[]\n"))
	wantBody(t, "search without a hit", serve(h, "POST", "/api/search",
		`{"expr":"contains(/annotation/body, \"no-such-word\")"}`), []byte("[]\n"))
}

// TestTracedListKeepsAValidLength: ?trace=1 wraps the body in an
// envelope, so the payload's Content-Length must not survive.
func TestTracedListKeepsAValidLength(t *testing.T) {
	s := smallStore(t)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	n := fmt.Sprint(s.Stats().Annotations)
	var env tracedEnvelope
	if code := getJSON(t, ts.URL+"/api/annotations?trace=1", &env); code != 200 {
		t.Fatalf("traced list: %d", code)
	}
	enc := findSpan(env.Trace, "encode")
	if enc == nil {
		t.Fatalf("no encode span under %+v", env.Trace)
	}
	if enc.Attrs["annotations"] != n || enc.Attrs["memo_misses"] != n ||
		enc.Attrs["bytes"] != fmt.Sprint(len(env.Response)+1) {
		t.Fatalf("encode span attrs %v for a %d-byte list of %s", enc.Attrs, len(env.Response)+1, n)
	}
	if code := getJSON(t, ts.URL+"/api/annotations?trace=1", &env); code != 200 {
		t.Fatalf("traced list: %d", code)
	}
	if enc = findSpan(env.Trace, "encode"); enc == nil || enc.Attrs["memo_misses"] != "0" {
		t.Fatalf("second read's encode span: %+v", enc)
	}
}

// TestMemoUnderConcurrentBatch: 8 readers list, look up and keyword-search
// the same annotations through the handler — racing to fill the same
// fragments — while one Batch of creates and deletes publishes. Every
// answer must be the reference encoding of the pre-batch or of the
// post-batch state, never a mix and never a torn fragment. Run with -race.
func TestMemoUnderConcurrentBatch(t *testing.T) {
	s := wireStore(t)
	h := NewHandler(s)
	note := func(i int) *core.Builder {
		m, err := s.MarkDomainInterval("w", interval.Interval{Lo: int64(i % 150), Hi: int64(i%150 + 20)})
		if err != nil {
			t.Fatal(err)
		}
		return s.NewAnnotation().Creator("u<" + fmt.Sprint(i) + ">").Date("2026-10-02").
			Title(fmt.Sprintf("note & %d", i)).Body(fmt.Sprintf("shared word%d", i%3)).Refer(m)
	}
	const seeds, creates = 60, 40
	var pre []*core.Annotation
	for i := 0; i < seeds; i++ {
		ann, err := s.Commit(note(i))
		if err != nil {
			t.Fatal(err)
		}
		pre = append(pre, ann)
	}
	// Reference answers of the pre-batch state are taken before any read,
	// from the annotations themselves; the post-batch ones after the
	// batch, below — fragments play no part in either.
	type answers struct{ list, keyword, first []byte }
	reference := func() answers {
		return answers{
			list:    refList(t, s.Annotations()),
			keyword: refList(t, s.SearchKeyword("shared", true)),
			first:   refOne(t, pre[1]),
		}
	}
	before := reference()

	var mu sync.Mutex
	got := map[string][][]byte{}
	start := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			local := map[string][][]byte{}
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one more round, entirely after the batch
				default:
				}
				for _, target := range []string{"/api/annotations", "/api/annotations?keyword=shared",
					fmt.Sprintf("/api/annotations/%d", pre[1].ID)} {
					rr := serve(h, "GET", target, "")
					if rr.Code != http.StatusOK {
						t.Errorf("%s: status %d", target, rr.Code)
						return
					}
					seen := local[target]
					if n := len(seen); n == 0 || !bytes.Equal(seen[n-1], rr.Body.Bytes()) {
						local[target] = append(seen, rr.Body.Bytes())
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for target, bodies := range local {
				got[target] = append(got[target], bodies...)
			}
		}()
	}
	close(start)
	err := s.Batch(func(tx *core.Tx) error {
		for i := 0; i < creates; i++ {
			if _, err := tx.Commit(note(seeds + i)); err != nil {
				return err
			}
		}
		for i := 0; i < seeds; i += 4 { // pre[1] survives
			if err := tx.DeleteAnnotation(pre[i].ID); err != nil {
				return err
			}
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	after := reference()
	if bytes.Equal(before.list, after.list) || bytes.Equal(before.keyword, after.keyword) {
		t.Fatal("the batch did not change the answers under test")
	}
	for target, want := range map[string][2][]byte{
		"/api/annotations":                            {before.list, after.list},
		"/api/annotations?keyword=shared":             {before.keyword, after.keyword},
		fmt.Sprintf("/api/annotations/%d", pre[1].ID): {before.first, after.first},
	} {
		sawAfter := false
		for _, body := range got[target] {
			switch {
			case bytes.Equal(body, want[1]):
				sawAfter = true
			case bytes.Equal(body, want[0]):
			default:
				t.Fatalf("%s: an answer is neither the pre-batch nor the post-batch encoding:\n%s", target, body)
			}
		}
		if !sawAfter {
			t.Fatalf("%s: no reader saw the post-batch answer in %d distinct answers", target, len(got[target]))
		}
	}
}

// unread fails if any annotation of s holds a fragment.
func unread(t *testing.T, when string, s *core.Store) {
	t.Helper()
	anns := s.Annotations()
	if len(anns) == 0 {
		t.Fatalf("%s: no annotations to check", when)
	}
	for _, ann := range anns {
		if ann.Encoded() != "" {
			t.Fatalf("%s: annotation %d holds a fragment no read asked for", when, ann.ID)
		}
	}
}

// TestMemoIsFilledByReadsOnly: creating annotations over HTTP, loading a
// snapshot and replaying a WAL leave every annotation without a fragment
// — a store that is only written to pays nothing for the memo — and the
// first read then fills them.
func TestMemoIsFilledByReadsOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	h := NewDurableHandler(d)
	study, err := workload.Influenza(workload.InfluenzaConfig{
		Seed: 5, Segments: 2, SeqsPerSeg: 2, SeqLen: 400, Annotations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := persist.Write(study.Store, &snap); err != nil {
		t.Fatal(err)
	}
	if rr := serve(h, "POST", "/api/restore", snap.String()); rr.Code != http.StatusOK {
		t.Fatalf("restore: %d (%s)", rr.Code, rr.Body.Bytes())
	}
	unread(t, "after a snapshot load", d.Core())

	const posts = 12
	for i := 0; i < posts; i++ {
		rr := serve(h, "POST", "/api/annotations", fmt.Sprintf(
			`{"creator":"w","date":"2026-10-02","body":"written %d","marks":[{"type":"sequence","seqId":%q,"lo":%d,"hi":%d}]}`,
			i, study.SequenceIDs[0], i+1, i+30))
		if rr.Code != http.StatusCreated {
			t.Fatalf("create %d: %d (%s)", i, rr.Code, rr.Body.Bytes())
		}
	}
	unread(t, "after creates", d.Core())
	if rr := serve(h, "DELETE", "/api/annotations/1", ""); rr.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rr.Code)
	}
	unread(t, "after a delete", d.Core())
	want := d.Core().Stats().Annotations
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = durable.Open(dir, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Stats().ReplayedRecords; got < posts {
		t.Fatalf("reopen replayed %d WAL records, want at least the %d creates", got, posts)
	}
	if got := d.Core().Stats().Annotations; got != want {
		t.Fatalf("reopened store holds %d annotations, want %d", got, want)
	}
	unread(t, "after a WAL replay", d.Core())

	if rr := serve(NewDurableHandler(d), "GET", "/api/annotations", ""); rr.Code != http.StatusOK {
		t.Fatalf("list: %d", rr.Code)
	}
	for _, ann := range d.Core().Annotations() {
		if ann.Encoded() == "" {
			t.Fatalf("annotation %d: the full listing kept no fragment", ann.ID)
		}
	}
}
