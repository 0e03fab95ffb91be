package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
	"graphitti/internal/xquery"
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
		Terms:    slices.Collect(ann.Terms),
		Referent: slices.Collect(ann.ReferentIDs),
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

// wantBody fails unless the response is a 200 carrying exactly want: with
// its exact Content-Length when it went out in one write, and with none
// when it was streamed — a list whose annotations reach wireChunk bytes.
func wantBody(t testing.TB, what string, rr *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d (%s)", what, rr.Code, rr.Body.Bytes())
	}
	if got := rr.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding/json's\n got %q\nwant %q", what, got, want)
	}
	cl := rr.Header().Get("Content-Length")
	if streamed := want[0] == '[' && len(want)-len("]\n") >= wireChunk; streamed && cl != "" {
		t.Fatalf("%s: Content-Length %q on a streamed %d-byte answer", what, cl, len(want))
	} else if !streamed && cl != fmt.Sprint(len(want)) {
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
// twice: a case of a shape of its own is the first encoding of that shape
// in the first pass, a later one in the second.
func checkWire(t testing.TB, cases ...wireCase) {
	t.Helper()
	s := wireStore(t)
	h := NewHandler(s)
	wantBody(t, "empty store", serve(h, "GET", "/api/annotations", ""), []byte("[]\n"))
	var anns []*core.Annotation
	for _, c := range cases {
		anns = append(anns, c.commit(t, s))
	}
	for _, pass := range []string{"first", "second"} {
		wantBody(t, pass+" list", serve(h, "GET", "/api/annotations", ""), refList(t, anns))
		for _, ann := range anns {
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
// equal encoding/json's, on the first encoding of the annotation's shape
// and on a later one.
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
// whether another route has encoded the same annotations before or not.
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
// envelope, so the payload's Content-Length must not survive. A list
// several chunks long is kept whole for the envelope, which is valid JSON,
// and the encode span's bytes are the payload's, summed over its chunks.
func TestTracedListKeepsAValidLength(t *testing.T) {
	for i, s := range []*core.Store{smallStore(t), influenzaStore(t, 300)} {
		ts := httptest.NewServer(NewHandler(s))
		defer ts.Close()
		n := fmt.Sprint(s.Stats().Annotations)
		resp, err := http.Get(ts.URL + "/api/annotations?trace=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("traced list of %s: %d, %v", n, resp.StatusCode, err)
		}
		var env tracedEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("traced list of %s: the envelope is not valid JSON: %v", n, err)
		}
		want := refList(t, s.View().Annotations())
		if !bytes.Equal(append(env.Response, '\n'), want) {
			t.Fatalf("traced list of %s: the payload is not the list", n)
		}
		if i == 1 && len(want) < 2*wireChunk {
			t.Fatalf("the traced list of %s is not several chunks long", n)
		}
		enc := findSpan(env.Trace, "encode")
		if enc == nil {
			t.Fatalf("no encode span under %+v", env.Trace)
		}
		if enc.Attrs["annotations"] != n || enc.Attrs["bytes"] != fmt.Sprint(len(env.Response)+1) {
			t.Fatalf("encode span attrs %v for a %d-byte list of %s", enc.Attrs, len(env.Response)+1, n)
		}
	}
}

// freshShapes numbers the tag names that give TestSkeletonUnderConcurrentReads'
// annotations shapes no earlier run in the process has encoded.
var freshShapes atomic.Int64

// TestSkeletonUnderConcurrentReads: 8 readers list, look up and
// keyword-search annotations whose documents each have a shape of their
// own, never encoded before — racing to build the same shapes' skeletons
// and Dublin Core spans — while one Batch of creates (of fresh shapes
// too) and deletes publishes. Every answer must be the reference encoding
// of the pre-batch or of the post-batch state, never a mix and never a
// torn skeleton. Run with -race.
func TestSkeletonUnderConcurrentReads(t *testing.T) {
	s := wireStore(t)
	h := NewHandler(s)
	note := func(i int) *core.Builder {
		m, err := s.MarkDomainInterval("w", interval.Interval{Lo: int64(i % 150), Hi: int64(i%150 + 20)})
		if err != nil {
			t.Fatal(err)
		}
		return s.NewAnnotation().Creator("u<"+fmt.Sprint(i)+">").Date("2026-10-02").
			Title(fmt.Sprintf("note & %d", i)).Body(fmt.Sprintf("shared word%d", i%3)).
			Tag(fmt.Sprintf("own%d", freshShapes.Add(1)), "v").Refer(m)
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
	// The reference answers are taken once the readers are done, from the
	// pre-batch view pinned here and from the post-batch store, so no
	// shape is encoded or read before the readers race to.
	before := s.View()
	type answers struct{ list, keyword, first []byte }
	reference := func(v *core.View) answers {
		first, err := v.Annotation(pre[1].ID)
		if err != nil {
			t.Fatal(err)
		}
		return answers{
			list:    refList(t, v.Annotations()),
			keyword: refList(t, v.SearchKeyword("shared", true)),
			first:   refOne(t, first),
		}
	}

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
	old, now := reference(before), reference(s.View())
	if bytes.Equal(old.list, now.list) || bytes.Equal(old.keyword, now.keyword) {
		t.Fatal("the batch did not change the answers under test")
	}
	for target, want := range map[string][2][]byte{
		"/api/annotations":                            {old.list, now.list},
		"/api/annotations?keyword=shared":             {old.keyword, now.keyword},
		fmt.Sprintf("/api/annotations/%d", pre[1].ID): {old.first, now.first},
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

// liveHeap returns the live heap once collections stop shrinking it (a
// sync.Pool's buffers outlive one collection).
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

// TestReadsKeepNoPerAnnotationState: the full listing of a 10k-annotation
// store, the related annotations of 64 of them and a keyword search leave
// the live heap where it was, give or take 64 KiB: a read keeps nothing
// per annotation it answers with. The store's document shapes keep a
// skeleton each, a few KiB between them; a server that kept every
// annotation's JSON fragment grew by 7.3 MiB here.
func TestReadsKeepNoPerAnnotationState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-annotation store")
	}
	s := influenzaStore(t, 10_000)
	// A ring of one trace per shard: the traces a handler retains for
	// /debug/traces are per request and bounded, not what is measured.
	h := New(memorySet(s), Options{TraceRingSize: 1})
	var ids []uint64
	s.View().AnnotationsEach(func(a *core.Annotation) bool { ids = append(ids, a.ID); return true })
	targets := []string{"/api/annotations", "/api/annotations?keyword=protease"}
	for i := 0; i < 64; i++ {
		targets = append(targets, fmt.Sprintf("/api/annotations/%d/related", ids[i*len(ids)/64]))
	}
	before := liveHeap()
	sent := 0
	for _, target := range targets {
		rr := serve(h, "GET", target, "")
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, rr.Code)
		}
		sent += rr.Body.Len()
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("%d reads answered %d KiB; the live heap grew by %d bytes", len(targets), sent>>10, grown)
	if grown > 64<<10 {
		t.Errorf("the live heap grew by %d KiB over the reads, want at most 64", grown>>10)
	}
	runtime.KeepAlive(h)
}

// BenchmarkWireEncode: one annotation's wire form, per op, over a store of
// 2k or 20k influenza annotations. cold encodes annotations no read has
// encoded before (fresh copies of the store's, each round); warm encodes
// the same ones again and again. Nothing is kept per annotation, so the
// two differ only by what a shape keeps, built once per shape.
func BenchmarkWireEncode(b *testing.B) {
	for _, n := range []int{2_000, 20_000} {
		s := influenzaStore(b, n)
		anns := s.View().Annotations()
		for _, cold := range []bool{true, false} {
			name := "warm"
			if cold {
				name = "cold"
			}
			b.Run(fmt.Sprintf("%s/anns=%dk", name, n/1000), func(b *testing.B) {
				wb := &wireBuf{w: &discardResponse{h: http.Header{}}}
				wb.list(anns)
				b.ReportAllocs()
				b.ResetTimer()
				var round []*core.Annotation
				for done := 0; done < b.N; {
					round = anns[:min(b.N-done, len(anns))]
					if cold {
						b.StopTimer()
						fresh := make([]*core.Annotation, len(round))
						for i, a := range round {
							fresh[i] = &core.Annotation{ID: a.ID, Content: a.Content, DC: a.DC}
						}
						round = fresh
						b.StartTimer()
					}
					wb.out, wb.sent = wb.out[:0], 0
					wb.list(round)
					done += len(round)
				}
				b.ReportMetric(float64(wb.sent+len(wb.out))/float64(len(round)), "B/ann")
			})
		}
	}
}

// TestRepeatedDCElementOrder: a repeated Dublin Core element keeps the
// order its values were given wherever the annotation is read. For creators
// "ma" then "lee", the wire's creator, the content document's first
// dc:creator (stored, searched, and as the wire's xml carries it) and the
// export all start with "ma".
func TestRepeatedDCElementOrder(t *testing.T) {
	s := influenzaStore(t, 4)
	m, err := s.MarkDomainInterval("segment1", span(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := s.Commit(s.NewAnnotation().Creator("ma").Creator("lee").Date("2008-01-01").Body("order").Refer(m))
	if err != nil {
		t.Fatal(err)
	}
	h := New(memorySet(s), Options{})
	// //meta/dc:creator[1], in the subset's spelling of a prefixed name.
	const first = "//meta/*[name() = 'dc:creator'][1]"
	q, err := xquery.Compile(first + " = 'ma'")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := q.EvalBool(ann.Content); err != nil || !got {
		t.Errorf("stored content: %s = 'ma' is %v (%v)", first, got, err)
	}
	rr := serve(h, "POST", "/api/search", `{"expr":"`+first+` = 'ma'"}`)
	var hits []annotationView
	if err := json.Unmarshal(rr.Body.Bytes(), &hits); err != nil || len(hits) != 1 || hits[0].ID != ann.ID {
		t.Errorf("search %s = 'ma': %d %s", first, rr.Code, rr.Body.Bytes())
	}

	rr = serve(h, "GET", fmt.Sprintf("/api/annotations/%d", ann.ID), "")
	var wire annotationView
	if err := json.Unmarshal(rr.Body.Bytes(), &wire); rr.Code != http.StatusOK || err != nil {
		t.Fatalf("get: %d %v: %s", rr.Code, err, rr.Body.Bytes())
	}
	if wire.Creator != "ma" {
		t.Errorf("wire creator = %q, want ma", wire.Creator)
	}
	if wire.XML != ann.Content.String() {
		t.Errorf("wire xml is not the stored document:\n%s", wire.XML)
	}

	snap, err := persist.Decode(serve(h, "GET", "/api/snapshot", "").Body)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(snap.Annotations, func(d persist.AnnotationDump) bool { return d.ID == ann.ID })
	if i < 0 {
		t.Fatalf("annotation %d is not in the export", ann.ID)
	}
	if got := snap.Annotations[i].DC["creator"]; !slices.Equal(got, []string{"ma", "lee"}) {
		t.Errorf("exported creators = %q, want [ma lee]", got)
	}
}
