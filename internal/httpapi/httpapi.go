// Package httpapi exposes a Graphitti store over HTTP/JSON.
//
// The paper's demonstration is a three-tab GUI; this API is the
// service-shaped equivalent a modern deployment would put behind such a
// front-end. Endpoints map one-to-one onto the tabs:
//
//	annotation tab:  POST /api/annotations, GET /api/objects
//	query tab:       POST /api/search, POST /api/query,
//	                 GET  /api/annotations/{id}/related,
//	                 GET  /api/annotations/{id}/correlated,
//	                 GET  /api/referents
//	admin tab:       GET /api/stats, DELETE /api/annotations/{id},
//	                 GET /api/snapshot, POST /api/restore
//	propagation:     GET/POST /api/rules, DELETE /api/rules/{id},
//	                 GET /api/provenance/{id}
//
// The handler serves one shard.Store — a set of N ≥ 1 writer pipelines,
// each with or without a log — and knows no other shape: an unsharded
// deployment is the set of one, an in-memory one a set whose pipelines
// have no log. Over pipelines that log, mutations are write-ahead logged
// before they are acknowledged, /api/stats carries each pipeline's
// durability counters under "sharding", and /api/restore checkpoints the
// restored state immediately. A read request pins one view set
// (shard.Views) once and answers from it alone, so no response mixes two
// epochs of a shard.
//
// Operational endpoints: GET /healthz (liveness — always 200 while the
// process serves) and GET /readyz (readiness — 503 + Retry-After while
// the store is degraded to read-only after a disk fault; reads keep
// answering 200 throughout). Mutations against a degraded store return
// 503 JSON with Retry-After naming the shard; POST /api/recover[?shard=k]
// runs the pipeline's Reopen path and restores readiness once the
// directory re-validates. All JSON bodies are size-capped (413 beyond the
// limit).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/query"
	"graphitti/internal/rtree"
	"graphitti/internal/shard"
	"graphitti/internal/trace"
)

// Options tune the handler.
type Options struct {
	// QueryTimeout bounds the execution of the search and query
	// endpoints; 0 means no server-side limit. Client disconnects cancel
	// execution either way (the request context is plumbed through query
	// and search evaluation).
	QueryTimeout time.Duration
	// MaxBodyBytes caps every JSON request body except the restore
	// upload; oversized requests get 413 instead of an unbounded read.
	// 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxRestoreBytes caps the POST /api/restore snapshot upload, and
	// what a compressed checkpoint in it inflates to.
	// 0 means DefaultMaxRestoreBytes.
	MaxRestoreBytes int64
	// Logger, when set, receives a structured line (with the request ID)
	// for every 5xx response. Nil disables request logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (the -pprof
	// server flag). Off by default: profiles expose internals.
	EnablePprof bool
	// SlowRequest, when positive, logs a structured line — with the
	// request's full span breakdown — for every request at least this
	// slow (the -slow-request server flag). Needs Logger.
	SlowRequest time.Duration
	// TraceRingSize is the per-shard retention of GET /debug/traces
	// (trace.DefaultRingSize when 0).
	TraceRingSize int
	// TraceSampleEvery retains every Nth request's trace in the rings
	// (every request when 0 or 1). ?trace=1 requests are always retained.
	TraceSampleEvery int
}

const (
	// DefaultMaxBodyBytes bounds mutation/query bodies: far above any
	// legitimate annotation or query, far below a memory-exhaustion
	// payload.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultMaxRestoreBytes bounds snapshot uploads, which carry whole
	// stores.
	DefaultMaxRestoreBytes = 1 << 30
)

// retryAfterSeconds is the Retry-After hint attached to 503 responses:
// long enough for an operator (or orchestrator) to notice /readyz and
// run recovery, short enough that clients re-probe promptly.
const retryAfterSeconds = "10"

// New returns an http.Handler serving the API over sh.
func New(sh *shard.Store, opts Options) http.Handler {
	api := &server{sh: sh, opts: opts, tracer: trace.NewTracer(trace.Options{
		RingSize:    opts.TraceRingSize,
		SampleEvery: opts.TraceSampleEvery,
	})}
	mux := http.NewServeMux()
	for _, def := range routeDefs {
		mux.HandleFunc(def.pattern, def.handler(api))
	}
	if opts.EnablePprof {
		mountPprof(mux)
	}
	return api.instrument(mux)
}

// NewHandler serves one in-memory store: a shard set of one pipeline
// without a log over s. Writes do not survive a restart.
func NewHandler(s *core.Store) http.Handler {
	return New(shard.Single(durable.Memory(s, core.StoreOptions{})), Options{})
}

// NewDurableHandler serves one pipeline: a shard set of one over d.
func NewDurableHandler(d *durable.Store) http.Handler {
	return New(shard.Single(d), Options{})
}

// NewShardedHandler is New with the default options.
func NewShardedHandler(sh *shard.Store) http.Handler {
	return New(sh, Options{})
}

// routeDefs is the single registration table: New mounts every entry
// and the middleware conformance test walks the same list, so a route
// can't be added without being counted by the metrics middleware.
var routeDefs = []struct {
	pattern string
	handler func(*server) http.HandlerFunc
}{
	{"GET /healthz", func(s *server) http.HandlerFunc { return s.healthz }},
	{"GET /readyz", func(s *server) http.HandlerFunc { return s.readyz }},
	{"POST /api/recover", func(s *server) http.HandlerFunc { return s.recoverStore }},
	{"GET /api/stats", func(s *server) http.HandlerFunc { return s.stats }},
	{"GET /metrics", func(s *server) http.HandlerFunc { return s.metrics }},
	{"GET /debug/traces", func(s *server) http.HandlerFunc { return s.debugTraces }},
	{"GET /api/annotations", func(s *server) http.HandlerFunc { return s.listAnnotations }},
	{"POST /api/annotations", func(s *server) http.HandlerFunc { return s.createAnnotation }},
	{"GET /api/annotations/{id}", func(s *server) http.HandlerFunc { return s.getAnnotation }},
	{"DELETE /api/annotations/{id}", func(s *server) http.HandlerFunc { return s.deleteAnnotation }},
	{"GET /api/annotations/{id}/related", func(s *server) http.HandlerFunc { return s.related }},
	{"GET /api/annotations/{id}/correlated", func(s *server) http.HandlerFunc { return s.correlated }},
	{"POST /api/search", func(s *server) http.HandlerFunc { return s.search }},
	{"POST /api/query", func(s *server) http.HandlerFunc { return s.runQuery }},
	{"GET /api/referents", func(s *server) http.HandlerFunc { return s.referents }},
	{"GET /api/objects", func(s *server) http.HandlerFunc { return s.objects }},
	{"GET /api/snapshot", func(s *server) http.HandlerFunc { return s.snapshot }},
	{"POST /api/restore", func(s *server) http.HandlerFunc { return s.restore }},
	{"GET /api/rules", func(s *server) http.HandlerFunc { return s.listRules }},
	{"POST /api/rules", func(s *server) http.HandlerFunc { return s.addRule }},
	{"DELETE /api/rules/{id}", func(s *server) http.HandlerFunc { return s.deleteRule }},
	{"GET /api/provenance/{id}", func(s *server) http.HandlerFunc { return s.provenance }},
}

// server is the handler's state: the shard set it serves. The set swaps
// its pipelines' stores internally (restore, recover), so nothing here
// changes after New.
type server struct {
	sh     *shard.Store
	opts   Options
	tracer *trace.Tracer
}

// queryCtx derives the execution context of a search/query request: the
// request's own context (canceled when the client goes away) bounded by
// the configured per-request timeout.
func (s *server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.QueryTimeout)
	}
	return r.Context(), func() {}
}

type errorBody struct {
	Error string `json:"error"`
	// RequestID is the correlation ID the middleware assigned (also in
	// the X-Request-Id response header), so a client-reported failure can
	// be matched to its server log line.
	RequestID string `json:"requestId,omitempty"`
	// Shard names the pipeline that refused a mutation (e.g. the
	// degraded shard behind a 503), so operators can recover that shard
	// while the rest keep writing.
	Shard *int `json:"shard,omitempty"`
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request aborted by the client; there is no official HTTP code.
const statusClientClosedRequest = 499

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// jsonError writes a JSON error envelope carrying the request ID.
func jsonError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg, RequestID: RequestID(r.Context())})
}

func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, durable.ErrDegraded):
		// The store is read-only until recovery; tell clients when to
		// retry rather than letting them hammer a wedged writer.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusRequestTimeout
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case errors.Is(err, shard.ErrBadSnapshot):
		// Ahead of the not-found cases: a snapshot naming an unknown
		// ontology is a bad upload, not a missing resource.
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrNoSuchAnnotation),
		errors.Is(err, core.ErrNoSuchObject),
		errors.Is(err, core.ErrNoSuchReferent),
		errors.Is(err, core.ErrNoSuchOntology),
		errors.Is(err, core.ErrNoSuchTerm),
		errors.Is(err, core.ErrNoSuchSystem):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrBadMark),
		errors.Is(err, core.ErrEmptyAnnotation),
		errors.Is(err, query.ErrSyntax),
		errors.Is(err, query.ErrXPath),
		errors.Is(err, prop.ErrBadRule),
		errors.Is(err, shard.ErrCrossShardReferent),
		errors.Is(err, shard.ErrCrossProduct):
		status = http.StatusBadRequest
	case errors.Is(err, prop.ErrDuplicateRule),
		errors.Is(err, prop.ErrSplitRules):
		status = http.StatusConflict
	case errors.Is(err, prop.ErrNoSuchRule):
		status = http.StatusNotFound
	}
	body := errorBody{Error: err.Error(), RequestID: RequestID(r.Context())}
	var se *shard.Error
	if errors.As(err, &se) {
		body.Shard = &se.Shard
	}
	writeJSON(w, status, body)
}

// healthView is the /healthz and /readyz payload: the degradation state
// plus what the server can still do about it. A degraded store serves
// reads but not writes.
type healthView struct {
	Status string `json:"status"` // ok | degraded | closed
	State  string `json:"state"`
	Reads  bool   `json:"reads"`
	Writes bool   `json:"writes"`
	Reason string `json:"reason,omitempty"`
	// DegradedShards lists the pipelines refusing writes. Writes routed
	// to any other shard still succeed, so partial degradation keeps
	// Reads true and most writes flowing even while /readyz reports 503.
	DegradedShards []int `json:"degradedShards,omitempty"`
}

// health folds the per-shard states: any degraded shard flips readiness
// (Writes false → /readyz 503) and is named in the reason, but reads —
// and writes routed to healthy shards — keep working.
func (s *server) health() healthView {
	v := healthView{Status: "ok", State: durable.StateHealthy.String(), Reads: true, Writes: true}
	for _, h := range s.sh.Health() {
		if h.State == durable.StateHealthy {
			continue
		}
		v.DegradedShards = append(v.DegradedShards, h.Shard)
		v.Status, v.State, v.Writes = "degraded", durable.StateDegraded.String(), false
		if h.State == durable.StateClosed {
			v.Status, v.State = "closed", durable.StateClosed.String()
		}
		part := fmt.Sprintf("shard %d %s", h.Shard, h.State)
		if h.Reason != "" {
			part += ": " + h.Reason
		}
		if v.Reason != "" {
			v.Reason += "; "
		}
		v.Reason += part
	}
	return v
}

// healthz is liveness: the process is up and serving HTTP, so always
// 200 — a degraded store is still alive (and answering reads), and
// restarting the process would not repair the disk. The state rides
// along for operators.
func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// readyz is readiness for full read-write service: 503 + Retry-After
// while degraded or closed, so load balancers stop routing writes; the
// body says reads are still served. POST /api/recover flips it back.
func (s *server) readyz(w http.ResponseWriter, _ *http.Request) {
	v := s.health()
	if v.Writes {
		writeJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeJSON(w, http.StatusServiceUnavailable, v)
}

// recoverStore runs the explicit recovery path — re-validating the data
// directory and probing the log — of one shard (?shard=k) or of every
// degraded shard. Each shard recovers independently; the first failure
// is reported with its shard ID and a Retry-After, like any
// degraded-shard write.
func (s *server) recoverStore(w http.ResponseWriter, r *http.Request) {
	if !s.sh.Durable() {
		jsonError(w, r, http.StatusBadRequest, "recover requires a durable store (-data-dir)")
		return
	}
	targets := s.sh.DegradedShards()
	if raw := r.URL.Query().Get("shard"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil || k < 0 || k >= s.sh.NumShards() {
			jsonError(w, r, http.StatusBadRequest,
				fmt.Sprintf("bad shard %q: want 0..%d", raw, s.sh.NumShards()-1))
			return
		}
		targets = []int{k}
	}
	for _, k := range targets {
		if err := s.sh.Reopen(k); err != nil {
			w.Header().Set("Retry-After", retryAfterSeconds)
			body := errorBody{Error: err.Error(), RequestID: RequestID(r.Context())}
			var se *shard.Error
			if errors.As(err, &se) {
				body.Shard = &se.Shard
			}
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, s.health())
}

// decodeJSON decodes a size-capped JSON request body into v, writing
// the HTTP error itself on failure: 413 when the cap is hit, 400 for
// malformed JSON or anything but whitespace after the value.
func (s *server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	limit := s.opts.MaxBodyBytes
	if limit <= 0 {
		limit = DefaultMaxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil || !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			jsonError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			jsonError(w, r, http.StatusBadRequest, "bad JSON: "+err.Error())
		}
		return false
	}
	return true
}

// statsView is the /api/stats payload: the store's component sizes, the
// published view epoch, and the shard set's own section.
type statsView struct {
	core.Stats
	Epoch    uint64       `json:"epoch"`
	Sharding shardingView `json:"sharding"`
}

// shardingView is the /api/stats section on the shard set: the shard
// count, the inter-shard channel counters, and (over pipelines that log)
// each shard's durability stats indexed by shard.
type shardingView struct {
	Shards            int             `json:"shards"`
	CrossShardCommits uint64          `json:"crossShardCommits"`
	Durability        []durable.Stats `json:"durability,omitempty"`
	// Load is each shard's load profile: mutation count, writer busy
	// time, and the top routing keys by estimated mutation count — the
	// signal for the "diagnose a slow shard" runbook in OPERATIONS.md.
	Load []shard.ShardLoad `json:"load,omitempty"`
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	vs := s.sh.Views()
	writeJSON(w, http.StatusOK, statsView{
		Stats: vs.Stats(),
		Epoch: vs.Epoch(),
		Sharding: shardingView{
			Shards:            s.sh.NumShards(),
			CrossShardCommits: s.sh.CrossShardCommits(),
			Durability:        s.sh.DurabilityStats(),
			Load:              s.sh.LoadStats(),
		},
	})
}

func (s *server) listAnnotations(w http.ResponseWriter, r *http.Request) {
	vs := s.sh.Views()
	if keyword := r.URL.Query().Get("keyword"); keyword != "" {
		writeAnnotations(w, r, vs.SearchKeyword(keyword, true))
	} else {
		writeAnnotations(w, r, vs.Annotations())
	}
}

func (s *server) getAnnotation(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	ann, err := s.sh.Views().Annotation(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeAnnotation(w, r, http.StatusOK, ann)
}

func (s *server) deleteAnnotation(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	if err := s.sh.DeleteAnnotation(id); err != nil {
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// markSpec describes one referent in an annotation request.
type markSpec struct {
	Type string `json:"type"` // interval|sequence|region|clade|subgraph|block|object
	// interval / sequence / block
	Domain string `json:"domain,omitempty"`
	SeqID  string `json:"seqId,omitempty"`
	Lo     int64  `json:"lo,omitempty"`
	Hi     int64  `json:"hi,omitempty"`
	// region
	ImageID string    `json:"imageId,omitempty"`
	Rect    []float64 `json:"rect,omitempty"` // x0,y0,x1,y1 or 3-D with 6
	// clade / subgraph / block rows
	ObjectID string   `json:"objectId,omitempty"`
	Keys     []string `json:"keys,omitempty"`
	// object
	ObjectType string `json:"objectType,omitempty"`
}

type annotationRequest struct {
	Creator string            `json:"creator"`
	Date    string            `json:"date"`
	Title   string            `json:"title,omitempty"`
	Body    string            `json:"body,omitempty"`
	Tags    map[string]string `json:"tags,omitempty"`
	Marks   []markSpec        `json:"marks"`
	Terms   []core.TermRef    `json:"terms,omitempty"`
}

func (s *server) createAnnotation(w http.ResponseWriter, r *http.Request) {
	var req annotationRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	// The middleware's root span rides the builder down the commit path
	// (router → shard writer → commit → propagation → WAL flush).
	b := s.sh.NewAnnotation().WithSpan(trace.FromContext(r.Context())).
		Creator(req.Creator).Date(req.Date).Body(req.Body)
	if req.Title != "" {
		b.Title(req.Title)
	}
	for name, val := range req.Tags {
		b.Tag(name, val)
	}
	vs := s.sh.Views() // every mark of the request resolves against one view set
	for i, m := range req.Marks {
		ref, err := resolveMark(vs, m)
		if err != nil {
			writeErr(w, r, fmt.Errorf("mark %d: %w", i, err))
			return
		}
		b.Refer(ref)
	}
	for _, tr := range req.Terms {
		b.OntologyRef(tr.Ontology, tr.TermID)
	}
	ann, err := s.sh.Commit(b)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeAnnotation(w, r, http.StatusCreated, ann)
}

// resolveMark builds a referent from a mark spec (read-only: marks are
// only registered at commit).
func resolveMark(vs shard.Views, m markSpec) (*core.Referent, error) {
	switch m.Type {
	case "interval":
		return vs.MarkDomainInterval(m.Domain, interval.Interval{Lo: m.Lo, Hi: m.Hi})
	case "sequence":
		return vs.MarkSequenceInterval(m.SeqID, interval.Interval{Lo: m.Lo, Hi: m.Hi})
	case "region":
		rect, err := rectOf(m.Rect)
		if err != nil {
			return nil, err
		}
		return vs.MarkImageRegion(m.ImageID, rect)
	case "clade":
		return vs.MarkClade(m.ObjectID, m.Keys...)
	case "subgraph":
		return vs.MarkSubgraph(m.ObjectID, m.Keys...)
	case "block":
		return vs.MarkAlignmentBlock(m.ObjectID, m.Keys, interval.Interval{Lo: m.Lo, Hi: m.Hi})
	case "object":
		return vs.MarkObject(core.ObjectType(m.ObjectType), m.ObjectID)
	default:
		return nil, fmt.Errorf("%w: unknown mark type %q", core.ErrBadMark, m.Type)
	}
}

func rectOf(coords []float64) (rtree.Rect, error) {
	switch len(coords) {
	case 4:
		return rtree.Rect2D(coords[0], coords[1], coords[2], coords[3]), nil
	case 6:
		return rtree.Rect3D(coords[0], coords[1], coords[2], coords[3], coords[4], coords[5]), nil
	default:
		return rtree.Rect{}, fmt.Errorf("%w: rect wants 4 or 6 coordinates, got %d",
			core.ErrBadMark, len(coords))
	}
}

func (s *server) related(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	rel, err := s.sh.Views().RelatedAnnotations(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeAnnotations(w, r, rel)
}

func (s *server) correlated(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	items, err := s.sh.Views().CorrelatedData(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	type item struct {
		Kind        string `json:"kind"`
		Key         string `json:"key"`
		Label       string `json:"label"`
		Description string `json:"description"`
	}
	out := make([]item, 0, len(items))
	for _, it := range items {
		out = append(out, item{
			Kind: it.Node.Kind.String(), Key: it.Node.Key(),
			Label: string(it.Label), Description: it.Description,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type searchRequest struct {
	Expr string `json:"expr"`
}

func (s *server) search(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	// The whole scan runs against one pinned view set, cancellable at
	// every evaluation stride.
	anns, err := s.sh.Views().SearchContentsCtx(ctx, req.Expr)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeErr(w, r, err)
			return
		}
		jsonError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	writeAnnotations(w, r, anns)
}

type queryRequest struct {
	Query      string `json:"query"`
	MaxResults int    `json:"maxResults,omitempty"`
}

// queryTail is what a query's answer carries after its annotations. The
// answer is {"matches":…,"order":…,"annotations":[…],…tail} with the
// annotations streamed between the parts encoding/json writes; its bytes
// are what encoding/json writes for the whole (stream_test.go keeps the
// struct the route used to encode, queryResponse, as the oracle).
type queryTail struct {
	Referents []string       `json:"referents,omitempty"`
	Subgraphs []subgraphView `json:"subgraphs,omitempty"`
	Explain   *explainView   `json:"explain,omitempty"`
}

// explainView surfaces the planner's decisions (POST /api/query with
// ?explain=1): the chosen order, the per-variable sub-query sizes and
// cost estimates, each variable's join strategy, and the join work the
// plan actually performed.
type explainView struct {
	Order           []string           `json:"order"`
	CandidateCounts map[string]int     `json:"candidateCounts"`
	Costs           map[string]float64 `json:"costs"`
	Strategies      map[string]string  `json:"strategies"`
	BindingsTried   int                `json:"bindingsTried"`
}

type subgraphView struct {
	Nodes []string `json:"nodes"`
	Edges int      `json:"edges"`
}

func (s *server) runQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.MaxResults < 0 {
		// The query's own limit must be at least 1; a negative cap would
		// lift it.
		jsonError(w, r, http.StatusBadRequest, "maxResults must not be negative")
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	opts := query.DefaultOptions
	opts.MaxResults = req.MaxResults
	res, err := s.sh.Views().Query(ctx, req.Query, opts)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	v := r.URL.Query().Get("explain")
	writeQuery(w, r, res, v == "1" || v == "true")
}

// writeQuery answers 200 with res: the envelope's small parts in
// encoding/json's form around the streamed annotations.
func writeQuery(w http.ResponseWriter, r *http.Request, res *query.Result, explain bool) {
	var tail queryTail
	if explain {
		tail.Explain = &explainView{
			Order:           res.Stats.Order,
			CandidateCounts: res.Stats.CandidateCounts,
			Costs:           res.Stats.Costs,
			Strategies:      res.Stats.Strategies,
			BindingsTried:   res.Stats.BindingsTried,
		}
	}
	for _, ref := range res.Referents {
		tail.Referents = append(tail.Referents, ref.String())
	}
	for _, sg := range res.Subgraphs {
		sv := subgraphView{Edges: sg.EdgeCount()}
		for _, n := range sg.Nodes {
			sv.Nodes = append(sv.Nodes, n.String())
		}
		tail.Subgraphs = append(tail.Subgraphs, sv)
	}
	order, _ := json.Marshal(res.Stats.Order) // a []string always marshals
	rest, err := json.Marshal(tail)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	wb := startEncode(w, r, http.StatusOK)
	defer wb.release()
	wb.out = append(wb.out, `{"matches":`...)
	wb.out = strconv.AppendInt(wb.out, int64(res.Stats.Matches), 10)
	wb.out = append(wb.out, `,"order":`...)
	wb.out = append(wb.out, order...)
	if len(res.Annotations) > 0 {
		wb.out = append(wb.out, `,"annotations":`...)
		wb.list(res.Annotations)
	}
	if len(rest) > len("{}") {
		wb.out = append(wb.out, ',')
	}
	wb.out = append(wb.out, rest[1:]...) // the tail's fields and the closing brace
	wb.out = append(wb.out, '\n')
	wb.finish()
}

func (s *server) referents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	domain := q.Get("domain")
	if domain == "" {
		jsonError(w, r, http.StatusBadRequest, "domain parameter required")
		return
	}
	pos, err := strconv.ParseInt(q.Get("pos"), 10, 64)
	if err != nil {
		jsonError(w, r, http.StatusBadRequest, "pos parameter required")
		return
	}
	refs := s.sh.Views().ReferentsAt(domain, pos)
	out := make([]string, 0, len(refs))
	for _, ref := range refs {
		out = append(out, ref.String())
	}
	writeJSON(w, http.StatusOK, out)
}

// objects lists the registered data objects, optionally filtered by type.
func (s *server) objects(w http.ResponseWriter, r *http.Request) {
	typeFilter := r.URL.Query().Get("type")
	type objectView struct {
		Type string `json:"type"`
		ID   string `json:"id"`
	}
	out := []objectView{}
	for _, h := range s.sh.Views().ObjectList() {
		if typeFilter != "" && string(h.Type) != typeFilter {
			continue
		}
		out = append(out, objectView{Type: string(h.Type), ID: h.ID})
	}
	writeJSON(w, http.StatusOK, out)
}

// snapshot streams the deployment as one format-2 binary checkpoint
// (persist.WriteCheckpoint) of the request's one pinned view set, with
// the rules those views' derived tables were computed under: a
// point-in-time image per shard that /api/restore, -snapshot and
// graphitti -load accept, whatever was being written meanwhile. A failure
// before the first byte answers like any failed request. One after it
// cannot change the 200 already sent, so the handler aborts the response:
// the client sees the body cut short, and a checkpoint without its
// checksum trailer is refused by persist.ReadOps.
func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	vs := s.sh.Views()
	body := &countingWriter{w: w}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := persist.WriteCheckpoint(vs, body); err != nil {
		if body.n > 0 {
			panic(http.ErrAbortHandler)
		}
		writeErr(w, r, err)
	}
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// restore loads a persist snapshot (the body is what GET /api/snapshot
// produces) and swaps it in: the shard set loads the body as it arrives,
// each op on the shard it is placed on, and only once the whole body has
// loaded — its checksum checked — installs every shard's part,
// checkpointed (snapshot + empty WAL) before the request is acknowledged
// where there is a log. The previous state is discarded. Only what is
// wrong with the snapshot is a 400; a fault of the store while installing
// goes through writeErr like any failed mutation. The one limit bounds
// both the upload and what a compressed checkpoint in it inflates to:
// past it, a 413, wherever in the body it falls, with nothing installed.
func (s *server) restore(w http.ResponseWriter, r *http.Request) {
	limit := s.opts.MaxRestoreBytes
	if limit <= 0 {
		limit = DefaultMaxRestoreBytes
	}
	body := untilDone{r.Context(), http.MaxBytesReader(w, r.Body, limit)}
	err := s.sh.Restore(persist.ReadOps(body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		s.stats(w, r)
	case errors.As(err, &tooBig) || errors.Is(err, persist.ErrInflateLimit):
		jsonError(w, r, http.StatusRequestEntityTooLarge, fmt.Sprintf("snapshot exceeds %d bytes", limit))
	case r.Context().Err() != nil:
		writeErr(w, r, r.Context().Err())
	default:
		writeErr(w, r, err)
	}
}

// untilDone reads r until ctx is done: an upload whose client is gone
// fails its restore rather than swap in a store nobody wants.
type untilDone struct {
	ctx context.Context
	r   io.Reader
}

func (u untilDone) Read(p []byte) (int, error) {
	if err := u.ctx.Err(); err != nil {
		return 0, err
	}
	return u.r.Read(p)
}

// factView is the JSON projection of one derived fact.
type factView struct {
	Rule       string `json:"rule"`
	Source     uint64 `json:"source"`
	TargetKind string `json:"targetKind"`
	TargetKey  string `json:"targetKey"`
	Witness    string `json:"witness"`
}

func viewOfFact(f core.DerivedFact) factView {
	return factView{
		Rule: f.Rule, Source: f.Source,
		TargetKind: f.Target.Kind.String(), TargetKey: f.Target.Key(),
		Witness: f.Witness,
	}
}

func factViews(facts []core.DerivedFact) []factView {
	out := make([]factView, 0, len(facts))
	for _, f := range facts {
		out = append(out, viewOfFact(f))
	}
	return out
}

func (s *server) listRules(w http.ResponseWriter, r *http.Request) {
	rules, err := s.sh.Views().Rules()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	if rules == nil {
		rules = []prop.Rule{}
	}
	writeJSON(w, http.StatusOK, rules)
}

func (s *server) addRule(w http.ResponseWriter, r *http.Request) {
	var rule prop.Rule
	if !s.decodeJSON(w, r, &rule) {
		return
	}
	if err := s.sh.AddRule(rule); err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, rule)
}

func (s *server) deleteRule(w http.ResponseWriter, r *http.Request) {
	if err := s.sh.DeleteRule(r.PathValue("id")); err != nil {
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// provenance traces derived annotations through one annotation: the
// facts it sourced ("derives") and the facts derived onto it
// ("provenance"), each carrying rule + source + witness.
func (s *server) provenance(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	vs := s.sh.Views()
	onto, err := vs.DerivedOnto(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	type provenanceView struct {
		ID         uint64     `json:"id"`
		Epoch      uint64     `json:"epoch,omitempty"`
		Derives    []factView `json:"derives"`
		Provenance []factView `json:"provenance"`
	}
	writeJSON(w, http.StatusOK, provenanceView{
		ID:         id,
		Epoch:      vs.DerivedSourceEpoch(id),
		Derives:    factViews(vs.DerivedFrom(id)),
		Provenance: factViews(onto),
	})
}

func pathID(r *http.Request) (uint64, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad annotation id %q", core.ErrNoSuchAnnotation, raw)
	}
	return id, nil
}
