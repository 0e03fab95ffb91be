package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
)

// clients is the closed-loop client count: one per vCPU of the machine
// class the benchmark is tuned for. Ownership of created annotations is
// per client, so the count is part of the op stream.
const clients = 2

const (
	vocabSize = 2000 // geneNNNN tokens
	domains   = 8    // workload.Influenza's segment domains
	seqsPer   = 4
	seqLen    = 2000
	// domainLen is the extent of one segment domain: seqsPer sequences of
	// seqLen residues, each offset by half a length from the previous.
	domainLen = seqLen + (seqsPer-1)*seqLen/2
)

// annSpec is one annotation the harness writes: through persist for the
// preload, through POST /api/annotations for a create.
type annSpec struct {
	title, creator, body, domain string
	lo, hi                       int64
}

// op is one pre-generated request.
type op struct {
	cl class
	// slot names an annotation independently of the ID the server gives
	// it: slots [0,preload) are the preloaded annotations, slot
	// preload+i is the annotation created by op i. A create fills its
	// slot; delete, get and related address one. -1 otherwise.
	slot   int
	method string
	// path is the request target for ops that address no slot.
	path string
	body []byte
	ann  *annSpec // create only
	// want is a substring the response must contain (get: the title).
	want string
	// word is the vocabulary token of a keyword, query or search op;
	// domain and pos are the point a refat op stabs. The in-process
	// probes of the traced run call the layers with them directly.
	word, domain string
	pos          int64
}

// target returns the request path: the op's own, or for an op that
// addresses a slot, the path of the annotation ids maps the slot to.
func (o *op) target(ids []uint64) string {
	if o.slot < 0 || o.cl == clCreate {
		return o.path
	}
	path := "/api/annotations/" + strconv.FormatUint(ids[o.slot], 10)
	if o.cl == clRelated {
		path += "/related"
	}
	return path
}

// stream is everything one run sends, derived from the seed alone.
type stream struct {
	preload []annSpec
	// ops holds the warm-up ops followed by the measured ops. Op i
	// belongs to client i%clients.
	ops  []op
	warm int
}

func (s *stream) slots() int { return len(s.preload) + len(s.ops) }

// measured returns the number of measured ops.
func (s *stream) measured() int { return len(s.ops) - s.warm }

var (
	creators = []string{"gupta", "condit", "martone", "chen"}
	// phrases are the create bodies; one in eight names "protease", the
	// trigger keyword of the session workload's propagation rule.
	phrases = []string{
		"conserved motif near the polymerase binding site",
		"putative protease cleavage region",
		"high mutation density in this window",
		"binding footprint confirmed by pulldown",
		"kinase activity suspected",
		"glycosylation site shifts between isolates",
		"reassortment breakpoint candidate",
		"host adaptation marker reported in poultry",
	}
)

// generator draws the stream's random choices. All draws come from one
// math/rand source in a fixed order, so a seed fixes the stream.
type generator struct {
	rng *rand.Rand
	// token is Zipf(1.1) over the vocabulary with offset 8: the most
	// common token is in about 3% of annotations, so a keyword answer is
	// tens of annotations, not a fifth of the store.
	token *rand.Zipf
	// domain is Zipf(1.2) over the segment domains: few hot objects.
	domain *rand.Zipf
	// recency is Zipf(1.1) with offset 50 over annotations newest-first.
	// The offset spreads the hot set over a few hundred annotations:
	// with offset 1 a single annotation draws a tenth of the reads, and
	// the domain it happens to sit in decides the run's related median.
	recency *rand.Zipf
	seq     int
}

func newGenerator(seed int64, slots int) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{
		rng:     rng,
		token:   rand.NewZipf(rng, 1.1, 8, vocabSize-1),
		domain:  rand.NewZipf(rng, 1.2, 1, domains-1),
		recency: rand.NewZipf(rng, 1.1, 50, uint64(slots)),
	}
}

func (g *generator) tokenWord() string { return fmt.Sprintf("gene%04d", g.token.Uint64()) }

func (g *generator) domainName() string { return fmt.Sprintf("segment%d", g.domain.Uint64()+1) }

func (g *generator) annotation(prefix string) annSpec {
	lo := g.rng.Int63n(domainLen - 100)
	a := annSpec{
		title:   fmt.Sprintf("%s%07d", prefix, g.seq),
		creator: creators[g.rng.Intn(len(creators))],
		body:    phrases[g.rng.Intn(len(phrases))] + " " + g.tokenWord(),
		domain:  g.domainName(),
		lo:      lo,
		hi:      lo + 20 + g.rng.Int63n(80),
	}
	g.seq++
	return a
}

// mixCounts splits n ops over the mix exactly (largest class absorbs the
// rounding), so every stretch of every run has the same composition.
func mixCounts(mix []share, n int) []int {
	counts := make([]int, len(mix))
	total, big := 0, 0
	for i, s := range mix {
		counts[i] = n * s.pct / 100
		total += counts[i]
		if s.pct > mix[big].pct {
			big = i
		}
	}
	counts[big] += n - total
	return counts
}

// sizes returns the preload, warm-up and measured op counts at scale.
// The measured count is a multiple of stretches*clients so that every
// stretch gives every client the same number of ops.
func (w *workload) sizes(scale float64) (preload, warm, ops int) {
	unit := stretches * clients
	ops = int(float64(w.ops)*scale) / unit * unit
	if ops < unit {
		ops = unit
	}
	warm = int(float64(ops)*warmupShare) / clients * clients
	if warm < clients {
		warm = clients
	}
	preload = int(float64(w.preload) * scale)
	if preload < 64 {
		preload = 64
	}
	return preload, warm, ops
}

// generate builds the stream of workload w at the given seed and scale.
func generate(w *workload, seed int64, scale float64) *stream {
	nPre, nWarm, nOps := w.sizes(scale)
	st := &stream{warm: nWarm}
	g := newGenerator(seed, nPre+nWarm+nOps)
	for i := 0; i < nPre; i++ {
		st.preload = append(st.preload, g.annotation("p"))
	}
	g.seq = 0

	// Per client: the slots it may read (preload, then its own creates
	// once aged, oldest first), the subset it may still delete, and its
	// creates not yet old enough for either.
	type owner struct {
		pool, own, pending []int
	}
	owners := make([]owner, clients)
	for c := range owners {
		for s := 0; s < nPre; s++ {
			owners[c].pool = append(owners[c].pool, s)
		}
	}
	deleted := make(map[int]bool)

	readTarget := func(o *owner) int {
		for try := 0; try < 16; try++ {
			r := int(g.recency.Uint64())
			if r >= len(o.pool) {
				continue
			}
			if s := o.pool[len(o.pool)-1-r]; !deleted[s] {
				return s
			}
		}
		return g.rng.Intn(nPre) // preloaded annotations are never deleted
	}

	emit := func(cl class, c int) {
		i := len(st.ops)
		o := &owners[c]
		for len(o.pending) > 0 && o.pending[0] <= nPre+i-clients*deleteAge {
			o.pool = append(o.pool, o.pending[0])
			o.own = append(o.own, o.pending[0])
			o.pending = o.pending[1:]
		}
		if cl == clDelete && len(o.own) == 0 {
			cl = clCreate // nothing of this client's is old enough yet
		}
		next := op{cl: cl, slot: -1, method: http.MethodGet}
		switch cl {
		case clCreate:
			a := g.annotation("w")
			next.ann, next.slot, next.method = &a, nPre+i, http.MethodPost
			next.path = "/api/annotations"
			next.body = []byte(fmt.Sprintf(
				`{"creator":%q,"date":"2008-04-07","title":%q,"body":%q,"marks":[{"type":"interval","domain":%q,"lo":%d,"hi":%d}]}`,
				a.creator, a.title, a.body, a.domain, a.lo, a.hi))
			o.pending = append(o.pending, next.slot)
		case clDelete:
			k := g.rng.Intn(len(o.own))
			next.slot, next.method = o.own[k], http.MethodDelete
			o.own[k] = o.own[len(o.own)-1]
			o.own = o.own[:len(o.own)-1]
			deleted[next.slot] = true
		case clGet:
			next.slot = readTarget(o)
			if next.slot < nPre {
				next.want = st.preload[next.slot].title
			} else {
				next.want = st.ops[next.slot-nPre].ann.title
			}
		case clRelated:
			next.slot = readTarget(o)
		case clRefAt:
			next.domain, next.pos = g.domainName(), g.rng.Int63n(domainLen)
			next.path = "/api/referents?domain=" + next.domain + "&pos=" + strconv.FormatInt(next.pos, 10)
		case clKeyword:
			next.word = g.tokenWord()
			next.path = "/api/annotations?keyword=" + url.QueryEscape(next.word)
		case clQuery:
			next.word = g.tokenWord()
			next.method, next.path = http.MethodPost, "/api/query"
			next.body = queryBody(next.word)
		case clSearch:
			next.word = g.tokenWord()
			next.method, next.path = http.MethodPost, "/api/search"
			next.body = searchBody(next.word)
		}
		st.ops = append(st.ops, next)
	}

	// stretch emits n ops, n/clients per client, each client's share with
	// the exact mix in a shuffled order.
	stretch := func(n int) {
		per := n / clients
		order := make([][]class, clients)
		for c := range order {
			for i, cnt := range mixCounts(w.mix, per) {
				for ; cnt > 0; cnt-- {
					order[c] = append(order[c], w.mix[i].cl)
				}
			}
			g.rng.Shuffle(per, func(a, b int) { order[c][a], order[c][b] = order[c][b], order[c][a] })
		}
		for k := 0; k < per; k++ {
			for c := 0; c < clients; c++ {
				emit(order[c][k], c)
			}
		}
	}

	if w.static() {
		// A static store has nothing to warm but caches: the warm-up
		// repeats the first measured ops, and their answers must come
		// back byte-identical in the measured pass.
		for b := 0; b < stretches; b++ {
			stretch(nOps / stretches)
		}
		st.ops = append(append([]op(nil), st.ops[:nWarm]...), st.ops...)
		return st
	}
	stretch(nWarm)
	for b := 0; b < stretches; b++ {
		stretch(nOps / stretches)
	}
	return st
}

// queryBody is the 3-variable annotation/referent/annotates join of
// httpapi's TestQueryExplain with the keyword drawn from the vocabulary.
func queryBody(word string) []byte {
	b, err := json.Marshal(map[string]interface{}{"query": queryText(word), "maxResults": queryMaxResults})
	if err != nil {
		panic(err) // a map of a string and an int always marshals
	}
	return b
}

const queryMaxResults = 20

func queryText(word string) string {
	return fmt.Sprintf("select contents where {\n  ?a isa annotation ; contains %q .\n  ?r isa referent ; kind interval .\n  ?a annotates ?r .\n}", word)
}

func searchExpr(word string) string { return fmt.Sprintf("contains(/annotation/body, %q)", word) }

func searchBody(word string) []byte {
	b, err := json.Marshal(map[string]string{"expr": searchExpr(word)})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return b
}

// hash fingerprints the stream: same seed, same hash.
func (s *stream) hash() string {
	h := sha256.New()
	for i := range s.preload {
		a := &s.preload[i]
		fmt.Fprintf(h, "P|%s|%s|%s|%s|%d|%d\n", a.title, a.creator, a.body, a.domain, a.lo, a.hi)
	}
	for i := range s.ops {
		o := &s.ops[i]
		fmt.Fprintf(h, "O|%d|%d|%s|%s|%s|%s\n", o.cl, o.slot, o.method, o.path, o.body, o.want)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
