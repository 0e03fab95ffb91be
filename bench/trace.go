package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/httpapi"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/query"
	"graphitti/internal/shard"
	"graphitti/internal/wal"
)

// tracedOps is how many measured ops, at scale 1, the traced run
// replays through each stack depth.
const tracedOps = 4000

// The traced run times the same ops, one client, one at a time, through
// successively deeper stacks, each built from the same snapshot:
//
//	core → durable (NoSync) → durable (fsync) → shard → in-process handler → live server
//
// A layer's self time is its depth's per-op time minus the next depth's.
// The harness records one span per call from outside the layer; spans
// inside the program are a later change.
const (
	depthCore    = "core"
	depthNoSync  = "durable_nosync"
	depthDurable = "durable"
	depthShard   = "shard"
	depthHandler = "handler"
	depthLive    = "live"
	// depthBare is the session workload's extra depth: the store
	// without the propagation rule.
	depthBare = "core, no rule"
)

// span is one timed call into a layer. Spans of one op share its index
// as the trace identifier; parent names the depth the call would sit
// under in the full stack.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(depth, parent string, o *op, trace int, start time.Time, d time.Duration) {
	s := span{Name: depth + "." + o.cl.String(), Trace: trace, Start: start.Sub(l.epoch).Nanoseconds()}
	s.End = s.Start + d.Nanoseconds()
	if parent != "" {
		s.Parent = parent + "." + o.cl.String()
	}
	l.spans = append(l.spans, s)
}

// agg accumulates one class's timed calls at one depth.
type agg struct {
	n     int
	total time.Duration
}

func (a agg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total.Microseconds()) / float64(a.n)
}

// depthTimes is the per-class outcome of one depth.
type depthTimes [numClasses]agg

func (d depthTimes) all() agg {
	var sum agg
	for _, a := range d {
		sum.n += a.n
		sum.total += a.total
	}
	return sum
}

// execFn performs one op at one depth and returns how long the layer
// call took; a negative duration means the depth does not run that class.
type execFn func(i int, o *op, ids []uint64) (time.Duration, error)

const skipped = time.Duration(-1)

// probe is one depth of a workload's stack, built from the preload and
// kept alive for the whole replay.
type probe struct {
	depth, parent string
	exec          execFn
	// ids maps slots to this depth's own annotation IDs. from is the op
	// the depth starts at: 0, or for the live server, whose set-up ran
	// the warm-up already, the first measured op.
	ids  []uint64
	from int
	// logged says whether the depth's calls are recorded as spans.
	logged bool
	close  func() error
	times  depthTimes
}

func (p *prepared) newProbe(depth, parent string, exec execFn, close func() error) *probe {
	return &probe{depth: depth, parent: parent, exec: exec, close: close,
		ids: append([]uint64(nil), p.or.ids...), logged: true}
}

// lockstep replays the warm-up, untimed, and then the first k measured
// ops: each op goes through every probe in turn before the next op
// starts. The depths are compared by subtraction, and this host's speed
// wanders from second to second; depths replayed one after the other
// differed by more than the layers between them. Side by side they
// share every second.
func lockstep(p *prepared, log *spanLog, k int, probes []*probe) error {
	for i := 0; i < p.st.warm+k; i++ {
		o := &p.st.ops[i]
		for _, pb := range probes {
			if i < pb.from {
				continue
			}
			start := time.Now()
			d, err := pb.exec(i, o, pb.ids)
			if err != nil {
				return fmt.Errorf("%s depth, op %d (%s): %w", pb.depth, i, o.cl, err)
			}
			if d < 0 || i < p.st.warm {
				continue
			}
			pb.times[o.cl].n++
			pb.times[o.cl].total += d
			if pb.logged {
				log.add(pb.depth, pb.parent, o, i, start, d)
			}
		}
	}
	return nil
}

// reader is the read surface core.Store and shard.Store share.
type reader interface {
	Annotation(uint64) (*core.Annotation, error)
	RelatedAnnotations(uint64) ([]*core.Annotation, error)
	ReferentsAt(string, int64) []*core.Referent
	SearchKeyword(string, bool) []*core.Annotation
}

// counters are the counts the probes take where the work happens.
type counters struct {
	// mallocs and allocBytes hold one entry per commit.
	mallocs, allocBytes     []float64
	queries, bindings       int
	candidates, matches     int
	searches, scanned, hits int
}

// storeExec times calls into a store's public functions: mutations
// through w, reads through r (nil: the depth skips reads), queries and
// content searches through cs (nil: skipped). cnt, when set, collects
// allocation counts per commit and the query and search work counts.
func storeExec(w writer, r reader, cs *core.Store, cnt *counters) execFn {
	var proc *query.Processor
	if cs != nil {
		proc = query.NewProcessor(cs)
	}
	var before, after runtime.MemStats
	return func(i int, o *op, ids []uint64) (time.Duration, error) {
		switch {
		case o.cl == clCreate:
			b, err := builderFor(w, o.ann)
			if err != nil {
				return 0, err
			}
			if cnt != nil {
				runtime.ReadMemStats(&before)
			}
			start := time.Now()
			ann, err := w.Commit(b)
			d := time.Since(start)
			if err != nil {
				return 0, err
			}
			if cnt != nil {
				runtime.ReadMemStats(&after)
				cnt.mallocs = append(cnt.mallocs, float64(after.Mallocs-before.Mallocs))
				cnt.allocBytes = append(cnt.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
			}
			ids[o.slot] = ann.ID
			return d, nil
		case o.cl == clDelete:
			start := time.Now()
			err := w.DeleteAnnotation(ids[o.slot])
			return time.Since(start), err
		case r == nil:
			return skipped, nil
		}
		start := time.Now()
		switch o.cl {
		case clGet:
			_, err := r.Annotation(ids[o.slot])
			return time.Since(start), err
		case clRelated:
			_, err := r.RelatedAnnotations(ids[o.slot])
			return time.Since(start), err
		case clRefAt:
			r.ReferentsAt(o.domain, o.pos)
			return time.Since(start), nil
		case clKeyword:
			r.SearchKeyword(o.word, true)
			return time.Since(start), nil
		}
		if cs == nil {
			return skipped, nil
		}
		switch o.cl {
		case clQuery:
			opts := query.DefaultOptions
			opts.MaxResults = queryMaxResults
			res, err := proc.ExecuteCtx(context.Background(), queryText(o.word), opts)
			d := time.Since(start)
			if err == nil && cnt != nil {
				cnt.queries++
				cnt.bindings += res.Stats.BindingsTried
				cnt.matches += res.Stats.Matches
				for _, c := range res.Stats.CandidateCounts {
					cnt.candidates += c
				}
			}
			return d, err
		case clSearch:
			v := cs.View()
			anns, err := v.SearchContentsCtx(context.Background(), searchExpr(o.word))
			d := time.Since(start)
			if cnt != nil {
				cnt.searches++
				cnt.scanned += v.Stats().Annotations
				cnt.hits += len(anns)
			}
			return d, err
		}
		return skipped, nil
	}
}

// handlerExec times ServeHTTP of an in-process handler with a recorder.
func handlerExec(h http.Handler) execFn {
	return func(i int, o *op, ids []uint64) (time.Duration, error) {
		start := time.Now()
		rr := serveInProcess(h, o, ids)
		d := time.Since(start)
		return d, o.check(rr.Code, rr.Body.Bytes(), ids)
	}
}

// loadSnapshot decodes the preload snapshot, as every depth does first.
func (p *prepared) loadSnapshot() (*persist.Snapshot, error) {
	return persist.Decode(bytes.NewReader(p.snap))
}

// coreStore loads the preload into a fresh in-memory store.
func (p *prepared) coreStore() (*core.Store, error) {
	snap, err := p.loadSnapshot()
	if err != nil {
		return nil, err
	}
	return persist.Load(snap)
}

// durableStore opens a durable store in a fresh directory, seeded from
// the preload the way the server seeds an empty -data-dir.
func (p *prepared) durableStore(e *env, noSync bool) (*durable.Store, error) {
	snap, err := p.loadSnapshot()
	if err != nil {
		return nil, err
	}
	d, err := durable.Open(e.tempPath("probe-durable"), durable.Options{
		CompactThreshold: int64(p.w.compactMiB) << 20, NoSync: noSync})
	if err != nil {
		return nil, err
	}
	if _, err = d.Restore(snap); err == nil && p.w.rules {
		err = d.AddRule(sessionRule)
	}
	if err != nil {
		_ = d.Close() // the open error is the one to report
		return nil, err
	}
	return d, nil
}

func (p *prepared) shardStore(e *env) (*shard.Store, error) {
	snap, err := p.loadSnapshot()
	if err != nil {
		return nil, err
	}
	sh, err := shard.Open(e.tempPath("probe-shards"), p.w.shards, durable.Options{})
	if err != nil {
		return nil, err
	}
	if err = sh.Restore(snap); err == nil {
		err = sh.AddRule(sessionRule)
	}
	if err != nil {
		_ = sh.Close() // the open error is the one to report
		return nil, err
	}
	return sh, nil
}

// runTraced is the traced run of one workload: the live run, with the
// server's own metrics read around its measured phase, then the probe
// depths.
func runTraced(ctx context.Context, e *env, w *workload, seed int64, scale float64) (*result, error) {
	res, p, err := newRun(e, w, seed, scale, true)
	if err != nil {
		return nil, err
	}
	st := p.st
	for _, m := range perLayer {
		res.Metrics[m.name] = 0
	}
	out, err := runLive(ctx, e, p, res, true)
	if err != nil {
		return nil, err
	}
	if err := liveLayerMetrics(p, out, res); err != nil {
		return nil, err
	}

	start := time.Now()
	k := int(tracedOps*scale) / clients * clients
	if k > st.measured() {
		k = st.measured()
	}
	if k < clients {
		k = clients
	}
	log := &spanLog{epoch: time.Now()}
	depths, err := probeDepths(ctx, e, p, log, k, res)
	if err != nil {
		return nil, err
	}
	res.Info["shares"] = shareTables(w, depths)

	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "trace-"+w.name+".json")
	raw, err := json.Marshal(log.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	res.Info["wall"] += fmt.Sprintf(" probes=%.1fs", time.Since(start).Seconds())
	res.Info["trace"] = fmt.Sprintf("%d spans of %d ops per depth in bench/out/trace-%s.json", len(log.spans), k, w.name)
	return res, nil
}

// liveLayerMetrics reads the live layer metrics off a live run: the
// client's clock per class, and the deltas of the server's own histograms
// and counters over the measured phase.
func liveLayerMetrics(p *prepared, out *liveOutcome, res *result) error {
	st := p.st
	var bytesOut int64
	for i := st.warm; i < len(st.ops); i++ {
		bytesOut += int64(out.rec.size[i])
	}
	res.Metrics["httpapi.resp_kb_per_op"] = float64(bytesOut) / 1024 / float64(st.measured())
	for c := class(0); c < numClasses; c++ {
		lat := classLatencies(st, out.rec, c)
		res.Metrics["httpapi."+c.String()+".p50_ms"] = percentile(lat, 0.50)
		res.Metrics["httpapi."+c.String()+".p99_ms"] = percentile(lat, 0.99)
	}

	// Server-side means: the growth of a histogram's sum over the growth
	// of its count, in microseconds.
	before, after := out.before, out.after
	srv := func(family, label string) float64 {
		cnt := delta(before, after, family+"_count", label)
		if cnt == 0 {
			return 0
		}
		return delta(before, after, family+"_sum", label) / cnt * 1e6
	}
	res.Metrics["httpapi.request.srv_us_per_op"] = srv("graphitti_http_request_duration_seconds", "/api/")
	res.Metrics["core.commit.srv_us_per_op"] = srv("graphitti_store_commit_duration_seconds", "")
	if p.w.rules {
		res.Metrics["prop.delta.srv_us_per_op"] = srv("graphitti_store_propagation_delta_seconds", "")
	}
	if !p.w.dataDir {
		return nil
	}
	res.Metrics["durable.commit_wait.srv_us_per_op"] = srv("graphitti_durable_commit_wait_seconds", "")
	res.Metrics["wal.fsync.srv_us_per_flush"] = srv("graphitti_wal_fsync_duration_seconds", "")
	if flushes := delta(before, after, "graphitti_wal_flushes_total", ""); flushes > 0 {
		res.Metrics["wal.records_per_flush"] = delta(before, after, "graphitti_wal_records_total", "") / flushes
	}
	var stats struct {
		Durability struct{ Compactions float64 }
		Sharding   struct {
			CrossShardCommits float64
			Durability        []struct{ Compactions float64 }
			Load              []struct{ Mutations float64 }
		}
	}
	if err := json.Unmarshal(out.stats, &stats); err != nil {
		return fmt.Errorf("decode /api/stats: %w", err)
	}
	// Checkpoint cycles since the server opened its directory, the one
	// that seeded it from the preload included.
	res.Metrics["durable.compactions"] = stats.Durability.Compactions
	for _, d := range stats.Sharding.Durability {
		res.Metrics["durable.compactions"] += d.Compactions
	}
	if p.w.shards <= 1 {
		return nil
	}
	var sum, busiest float64
	for _, s := range stats.Sharding.Load {
		sum += s.Mutations
		if s.Mutations > busiest {
			busiest = s.Mutations
		}
	}
	res.Metrics["shard.cross_shard_commits"] = stats.Sharding.CrossShardCommits
	if sum > 0 {
		res.Metrics["shard.busiest_share"] = busiest / sum
	}
	return nil
}

// scrape reads GET /metrics into a map from series (name and labels) to
// value.
func scrape(c *client) (map[string]float64, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, nil
}

// delta sums, over every series of the named family whose labels contain
// label, the growth between two scrapes.
func delta(before, after map[string]float64, name, label string) float64 {
	var sum float64
	for series, v := range after {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		if label != "" && !strings.Contains(series, label) {
			continue
		}
		sum += v - before[series]
	}
	return sum
}

// namedDepth is one depth's times with the layer its self time belongs to.
type namedDepth struct {
	depth, layer string
	times        depthTimes
}

// probeDepths replays k ops through every depth the workload's server
// stacks up, fills the probe metrics and returns the per-depth times,
// outermost first, for the share tables.
func probeDepths(ctx context.Context, e *env, p *prepared, log *spanLog, k int, res *result) ([]namedDepth, error) {
	// The counts come from a pass of their own: reading the allocator's
	// statistics exactly stops the world and empties the per-thread
	// caches, which slows whatever runs next.
	var cnt counters
	counted, err := p.coreStore()
	if err != nil {
		return nil, err
	}
	if err := lockstep(p, log, k, []*probe{{depth: depthCore, exec: storeExec(counted, counted, counted, &cnt), ids: append([]uint64(nil), p.or.ids...)}}); err != nil {
		return nil, err
	}
	countMetrics(&cnt, res)

	probes, stores, err := p.buildProbes(ctx, e, res)
	defer func() {
		for _, pb := range probes {
			_ = pb.close() // a failed replay is the error to report
		}
	}()
	if err == nil {
		err = lockstep(p, log, k, probes)
	}
	if err != nil {
		return nil, err
	}
	by := map[string]depthTimes{}
	for _, pb := range probes {
		by[pb.depth] = pb.times
	}

	bare := by[depthBare]
	if !p.w.rules {
		bare = by[depthCore]
	}
	res.Metrics["core.commit.us_per_op"] = bare[clCreate].meanUs()
	res.Metrics["core.delete.us_per_op"] = bare[clDelete].meanUs()
	res.Metrics["core.related.us_per_op"] = bare[clRelated].meanUs()
	res.Metrics["core.refat.us_per_op"] = bare[clRefAt].meanUs()
	res.Metrics["core.keyword.us_per_op"] = bare[clKeyword].meanUs()
	res.Metrics["query.exec.us_per_op"] = bare[clQuery].meanUs()
	res.Metrics["xquery.search.ms_per_op"] = bare[clSearch].meanUs() / 1000
	if err := persistProbe(stores.bare, res); err != nil {
		return nil, err
	}
	if p.w.rules {
		res.Metrics["prop.delta.us_per_op"] = by[depthCore][clCreate].meanUs() - bare[clCreate].meanUs()
		creates := 0
		for _, o := range p.st.ops[:p.st.warm+k] {
			if o.cl == clCreate {
				creates++
			}
		}
		res.Metrics["prop.derived_per_commit"] = float64(stores.ruled.Stats().Derived-stores.derivedAtStart) / float64(creates)
	}
	if p.w.dataDir {
		noSync := by[depthNoSync][clCreate].meanUs()
		res.Metrics["durable.commit.us_per_op"] = by[depthDurable][clCreate].meanUs()
		res.Metrics["durable.commit_nosync.us_per_op"] = noSync
		res.Metrics["durable.self_us_per_op"] = noSync - by[depthCore][clCreate].meanUs()
		if err := durableCounts(stores.noSync, res); err != nil {
			return nil, err
		}
		if err := walProbe(e, k, res); err != nil {
			return nil, err
		}
	}
	if p.w.shards > 1 {
		res.Metrics["shard.commit.us_per_op"] = by[depthShard][clCreate].meanUs()
		res.Metrics["shard.route_overhead_us_per_op"] = by[depthShard][clCreate].meanUs() - by[depthDurable][clCreate].meanUs()
		res.Metrics["shard.related.us_per_op"] = by[depthShard][clRelated].meanUs()
	}
	live, handler := by[depthLive].all(), by[depthHandler].all()
	res.Metrics["httpapi.handler.us_per_op"] = handler.meanUs()
	res.Metrics["net.overhead_us_per_op"] = live.meanUs() - handler.meanUs()
	traced := agg{live.n - stores.untraced.n, live.total - stores.untraced.total}
	if stores.untraced.meanUs() > 0 {
		res.Metrics["trace.overhead_ratio"] = traced.meanUs()/stores.untraced.meanUs() - 1
	}

	layers := map[string]string{depthLive: "net", depthHandler: "httpapi", depthShard: "shard",
		depthDurable: "wal fsync", depthNoSync: "durable", depthCore: "core", depthBare: "core"}
	if p.w.rules {
		layers[depthCore] = "prop"
	}
	var depths []namedDepth
	for i := len(probes) - 1; i >= 0; i-- {
		depths = append(depths, namedDepth{probes[i].depth, layers[probes[i].depth], probes[i].times})
	}
	return depths, ctx.Err()
}

// countMetrics turns the counting pass's counts into metrics.
func countMetrics(cnt *counters, res *result) {
	// Medians, not means: the runtime's own background allocations land
	// in a few commits' windows, and a count must repeat exactly.
	res.Metrics["core.commit.allocs_per_op"] = median(cnt.mallocs)
	res.Metrics["core.commit.alloc_kb_per_op"] = median(cnt.allocBytes) / 1024
	if cnt.queries > 0 {
		res.Metrics["query.bindings_tried_per_op"] = float64(cnt.bindings) / float64(cnt.queries)
	}
	if cnt.matches > 0 {
		res.Metrics["query.candidates_per_match"] = float64(cnt.candidates) / float64(cnt.matches)
	}
	if cnt.hits > 0 {
		res.Metrics["xquery.anns_scanned_per_match"] = float64(cnt.scanned) / float64(cnt.hits)
	}
}

// probeStores is what probeDepths reads off the probes' stores once the
// replay is over.
type probeStores struct {
	bare, ruled    *core.Store
	derivedAtStart int
	noSync         *durable.Store
	// untraced accumulates the live depth's ops timed with span recording
	// off: every second one.
	untraced agg
}

// buildProbes builds the workload's stack, innermost depth first: the
// store alone (for the session workload once without its rule and once
// with: the gap is what propagation adds to a commit), the durable store
// without and with fsync, the shard router, the in-process HTTP handler
// over the full store, and the live server over loopback with one
// client. Whatever was built is returned even on error, to be closed.
func (p *prepared) buildProbes(ctx context.Context, e *env, res *result) ([]*probe, *probeStores, error) {
	// names lists the depths this workload has, innermost first; a span's
	// parent is the depth after its own.
	names := []string{depthCore}
	if p.w.dataDir {
		names = append(names, depthNoSync, depthDurable)
	}
	if p.w.shards > 1 {
		names = append(names, depthShard)
	}
	names = append(names, depthHandler, depthLive)
	parent := func(depth string) string {
		for i, n := range names[:len(names)-1] {
			if n == depth {
				return names[i+1]
			}
		}
		return ""
	}
	noClose := func() error { return nil }
	var probes []*probe
	st := &probeStores{}
	add := func(depth string, exec execFn, close func() error) *probe {
		pb := p.newProbe(depth, parent(depth), exec, close)
		probes = append(probes, pb)
		return pb
	}

	var err error
	if st.bare, err = p.coreStore(); err != nil {
		return probes, st, err
	}
	if p.w.rules {
		add(depthBare, storeExec(st.bare, st.bare, st.bare, nil), noClose).logged = false
		if st.ruled, err = p.coreStore(); err != nil {
			return probes, st, err
		}
		start := time.Now()
		if err := prop.Attach(st.ruled).AddRule(sessionRule); err != nil {
			return probes, st, err
		}
		res.Metrics["prop.addrule_ms"] = ms(time.Since(start))
		st.derivedAtStart = st.ruled.Stats().Derived
		add(depthCore, storeExec(st.ruled, st.ruled, st.ruled, nil), noClose)
	} else {
		add(depthCore, storeExec(st.bare, st.bare, st.bare, nil), noClose)
	}
	if p.w.dataDir {
		if st.noSync, err = p.durableStore(e, true); err != nil {
			return probes, st, err
		}
		add(depthNoSync, storeExec(st.noSync, nil, nil, nil), st.noSync.Close)
		d, err := p.durableStore(e, false)
		if err != nil {
			return probes, st, err
		}
		add(depthDurable, storeExec(d, nil, nil, nil), d.Close)
	}
	if p.w.shards > 1 {
		sh, err := p.shardStore(e)
		if err != nil {
			return probes, st, err
		}
		add(depthShard, storeExec(sh, sh, nil, nil), sh.Close)
	}
	h, closeStore, err := p.handler(e)
	if err != nil {
		return probes, st, err
	}
	add(depthHandler, handlerExec(h), closeStore)

	l, _, err := p.setUp(ctx, e, 1)
	if err != nil {
		return probes, st, err
	}
	exec := liveExec(ctx, l.cs[0])
	var live *probe
	live = add(depthLive, func(i int, o *op, ids []uint64) (time.Duration, error) {
		live.logged = i%2 == 0
		d, err := exec(i, o, ids)
		if !live.logged {
			st.untraced.n++
			st.untraced.total += d
		}
		return d, err
	}, func() error { l.stop(); return nil })
	live.ids, live.from = l.ids, p.st.warm
	return probes, st, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// liveExec times one request to the live server from the client side.
func liveExec(ctx context.Context, c *client) execFn {
	return func(i int, o *op, ids []uint64) (time.Duration, error) {
		start := time.Now()
		r, err := c.do(ctx, o.method, o.target(ids), o.body)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		return d, o.check(r.status, r.head, ids)
	}
}

// handler builds the in-process handler over the same stack the
// workload's server runs, and returns what closes the store under it.
func (p *prepared) handler(e *env) (http.Handler, func() error, error) {
	switch {
	case p.w.shards > 1:
		sh, err := p.shardStore(e)
		if err != nil {
			return nil, nil, err
		}
		return httpapi.NewShardedHandler(sh), sh.Close, nil
	case p.w.dataDir:
		d, err := p.durableStore(e, false)
		if err != nil {
			return nil, nil, err
		}
		return httpapi.NewDurableHandler(d), d.Close, nil
	}
	s, err := p.coreStore()
	if err != nil {
		return nil, nil, err
	}
	return httpapi.NewHandler(s), func() error { return nil }, nil
}

// durableCounts reads the frame size off the NoSync depth, which runs one
// op at a time and so repeats exactly, and times one forced checkpoint.
func durableCounts(d *durable.Store, res *result) error {
	st := d.Stats()
	// The writer's counters restart at every log rotation; bytes over
	// records is the mean frame size either way.
	if st.WAL.Records > 0 {
		res.Metrics["wal.bytes_per_op"] = float64(st.WAL.Bytes) / float64(st.WAL.Records)
	}
	start := time.Now()
	if err := d.Compact(); err != nil {
		return err
	}
	res.Metrics["durable.compact_ms"] = ms(time.Since(start))
	return nil
}

// walProbe appends k records of the stream's mean envelope size to a
// standalone log, with and without fsync.
func walProbe(e *env, k int, res *result) error {
	payload := make([]byte, int(res.Metrics["wal.bytes_per_op"]))
	for _, noSync := range []bool{true, false} {
		w, err := wal.Create(e.tempPath("probe.wal"), wal.Options{NoSync: noSync})
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < k && err == nil; i++ {
			err = w.Append(payload)
		}
		d := time.Since(start)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		name := "wal.append.us_per_op"
		if noSync {
			name = "wal.append_nosync.us_per_op"
		}
		res.Metrics[name] = float64(d.Microseconds()) / float64(k)
	}
	return nil
}

// persistProbe exports and reloads the end state of the core depth.
func persistProbe(s *core.Store, res *result) error {
	var buf bytes.Buffer
	start := time.Now()
	snap, err := persist.Export(s)
	if err == nil {
		err = persist.WriteSnapshot(snap, &buf)
	}
	if err != nil {
		return err
	}
	res.Metrics["persist.export_ms"] = ms(time.Since(start))
	if n := s.Stats().Annotations; n > 0 {
		res.Metrics["persist.snapshot_bytes_per_ann"] = float64(buf.Len()) / float64(n)
	}
	start = time.Now()
	if snap, err = persist.Decode(&buf); err == nil {
		_, err = persist.Load(snap)
	}
	res.Metrics["persist.load_ms"] = ms(time.Since(start))
	return err
}

// shareTables renders, for create, related and query where the workload
// runs them, each layer's self time: its depth's per-op time minus the
// next depth's. The selves sum to the live per-op time by construction;
// the table prints both so a reader can see that they do.
func shareTables(w *workload, depths []namedDepth) string {
	var sb strings.Builder
	for _, cl := range []class{clCreate, clRelated, clQuery} {
		var rows []namedDepth
		for _, d := range depths {
			if d.times[cl].n > 0 {
				rows = append(rows, d)
			}
		}
		if len(rows) == 0 {
			continue
		}
		live := rows[0].times[cl].meanUs()
		fmt.Fprintf(&sb, "   share of latency: %s on %s, one client, %d ops per depth\n", cl, w.name, rows[0].times[cl].n)
		fmt.Fprintf(&sb, "     %-10s %-16s %12s %12s %8s\n", "layer", "depth", "depth us/op", "self us/op", "share")
		sum := 0.0
		for i, r := range rows {
			self := r.times[cl].meanUs()
			if i+1 < len(rows) {
				self -= rows[i+1].times[cl].meanUs()
			}
			sum += self
			fmt.Fprintf(&sb, "     %-10s %-16s %12.1f %12.1f %7.1f%%\n", r.layer, r.depth, r.times[cl].meanUs(), self, 100*self/live)
		}
		fmt.Fprintf(&sb, "     %-10s %-16s %12.1f %12.1f %7.1f%%\n", "sum", "", live, sum, 100*sum/live)
	}
	return sb.String()
}
