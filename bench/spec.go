package main

// class is one homogeneous request class: one route, one shape of work.
// Every latency percentile is taken over a single class, because a
// percentile over a mix of classes sits on a boundary between modes and
// does not repeat.
type class int

const (
	clCreate  class = iota // POST   /api/annotations (one interval mark)
	clDelete               // DELETE /api/annotations/{id}
	clGet                  // GET    /api/annotations/{id}
	clRefAt                // GET    /api/referents?domain&pos
	clRelated              // GET    /api/annotations/{id}/related
	clKeyword              // GET    /api/annotations?keyword=
	clQuery                // POST   /api/query (3-variable join, maxResults 20)
	clSearch               // POST   /api/search (contains over the body)
	numClasses
)

var classNames = [numClasses]string{"create", "delete", "get", "refat", "related", "keyword", "query", "search"}

func (c class) String() string { return classNames[c] }

// mutates reports whether the class goes through the writer.
func (c class) mutates() bool { return c == clCreate || c == clDelete }

// share is one class's percentage of a workload's mix.
type share struct {
	cl  class
	pct int
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// why says which layers the workload stresses and which it bypasses;
	// BENCHMARK.json carries the same sentence.
	why string
	// preload and ops are the store size before the run and the number
	// of measured operations, both at scale 1 (-seconds 24).
	preload, ops int
	mix          []share
	// headline is the class the end-to-end p50_ms/p90_ms are taken over.
	headline class
	// dataDir runs the server with -data-dir (WAL + checkpoints).
	dataDir bool
	// shards > 1 passes -shards; rules installs the session's overlap rule.
	shards int
	rules  bool
	// compactMiB, when non-zero, is passed as -compact-threshold-mib.
	compactMiB int
}

// static reports whether the workload never mutates the store.
func (w *workload) static() bool {
	for _, s := range w.mix {
		if s.cl.mutates() {
			return false
		}
	}
	return true
}

// refSeconds is the measured-phase length the full sizes below were
// chosen for: -seconds S runs every workload at scale S/refSeconds, so
// the run length the benchmark records is also the record of its scale.
const refSeconds = 24.0

// defaultSeconds is BENCHMARK.json's run_seconds (scale 1/3): the
// largest size at which 92 runs and two builds fit the 57-minute cap.
const defaultSeconds = 8.0

// stretches is the number of equal parts of the measured phase that
// each carry the workload's exact mix: the store grows along a write
// run, and the mix must not drift along with it.
const stretches = 10

// warmupShare is the extra share of ops run, unmeasured, before the
// measured phase.
const warmupShare = 0.05

// deleteAge is how many of its own ops a client waits before an
// annotation it created may be deleted or read back.
const deleteAge = 64

var workloads = []workload{
	{
		name:    "annotate",
		why:     "Commit path alone: in-memory 1-shard server, create 90/delete 10; httpapi decode + core validate/index/a-graph/publish; wal, durable, prop, shard, query idle.",
		preload: 10000, ops: 40000,
		mix:      []share{{clCreate, 90}, {clDelete, 10}},
		headline: clCreate,
	},
	{
		name:    "durable",
		why:     "Same op stream over -data-dir with 1 MiB compaction: fsync, the JSON op envelope, group commit and checkpoints dominate, core is the minority; kill -9 tests durability.",
		preload: 5000, ops: 30000,
		mix:      []share{{clCreate, 90}, {clDelete, 10}},
		headline: clCreate,
		dataDir:  true, compactMiB: 1,
	},
	{
		name:    "explore",
		why:     "Read path only on a static in-memory store: query planner/semi-join, xquery scan, a-graph traversal, interval stabs; bypasses every write-path layer, so commit work must leave it flat.",
		preload: 20000, ops: 27000,
		mix:      []share{{clGet, 25}, {clRefAt, 20}, {clRelated, 20}, {clKeyword, 12}, {clQuery, 20}, {clSearch, 3}},
		headline: clQuery,
	},
	{
		name:    "session",
		why:     "Collaborative session: reads beside writes on the same views through 2 durable shards with an overlap rule; uses annotate's and explore's layers at once, so a win that taxes the other side shows.",
		preload: 10000, ops: 27000,
		mix:      []share{{clCreate, 18}, {clDelete, 2}, {clGet, 30}, {clRefAt, 22}, {clRelated, 20}, {clKeyword, 8}},
		headline: clRelated,
		dataDir:  true, shards: 2, rules: true,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one metric. The tables below are the single source
// the run prints from; BENCHMARK.json repeats them and spec_test.go
// holds the two in step.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	bound float64
}

// endToEnd are the metrics with a bound: the ones that repeated within
// it, as clocked, over two sets of ten runs on every workload. setup_s is
// there because the benchmark's contract wants set-up time bounded, with
// the widest bound it allows.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_ratio", "ratio", "higher", 0.001},
	{"rss_peak_mb", "MiB", "lower", 0.10},
	{"disk_bytes_per_ann", "B", "lower", 0.02},
}

// demoted are the end-to-end metrics that did not repeat within a tenth
// on this machine class (README, "Host noise"): the end-to-end run still
// measures and prints them, as clocked, but they carry no bound and are
// reported with the layer table.
var demoted = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0},
	{"p50_ms", "ms", "lower", 0},
	{"p90_ms", "ms", "lower", 0},
	{"cpu_ms_per_op", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},
}

// perLayer lists the layer table: the demoted end-to-end metrics, then
// the layers in order. A metric whose layer a workload does not use is
// printed as 0 there.
var perLayer = func() []metricSpec {
	out := append([]metricSpec(nil), demoted...)
	add := func(name, unit, better string) { out = append(out, metricSpec{name, unit, better, 0}) }
	for _, c := range classNames {
		add("httpapi."+c+".p50_ms", "ms", "lower")
		add("httpapi."+c+".p99_ms", "ms", "lower")
	}
	add("httpapi.resp_kb_per_op", "KiB", "lower")
	add("httpapi.handler.us_per_op", "us", "lower")
	add("httpapi.request.srv_us_per_op", "us", "lower")
	add("net.overhead_us_per_op", "us", "lower")
	add("core.commit.us_per_op", "us", "lower")
	add("core.commit.allocs_per_op", "count", "lower")
	add("core.commit.alloc_kb_per_op", "KiB", "lower")
	add("core.delete.us_per_op", "us", "lower")
	add("core.related.us_per_op", "us", "lower")
	add("core.refat.us_per_op", "us", "lower")
	add("core.keyword.us_per_op", "us", "lower")
	add("core.commit.srv_us_per_op", "us", "lower")
	add("durable.commit.us_per_op", "us", "lower")
	add("durable.commit_nosync.us_per_op", "us", "lower")
	add("durable.self_us_per_op", "us", "lower")
	add("durable.compact_ms", "ms", "lower")
	add("durable.compactions", "count", "lower")
	add("durable.commit_wait.srv_us_per_op", "us", "lower")
	add("wal.append.us_per_op", "us", "lower")
	add("wal.append_nosync.us_per_op", "us", "lower")
	add("wal.bytes_per_op", "B", "lower")
	add("wal.records_per_flush", "count", "higher")
	add("wal.fsync.srv_us_per_flush", "us", "lower")
	add("persist.export_ms", "ms", "lower")
	add("persist.load_ms", "ms", "lower")
	add("persist.snapshot_bytes_per_ann", "B", "lower")
	add("query.exec.us_per_op", "us", "lower")
	add("query.bindings_tried_per_op", "count", "lower")
	add("query.candidates_per_match", "count", "lower")
	add("xquery.search.ms_per_op", "ms", "lower")
	add("xquery.anns_scanned_per_match", "count", "lower")
	add("prop.delta.us_per_op", "us", "lower")
	add("prop.derived_per_commit", "count", "lower")
	add("prop.addrule_ms", "ms", "lower")
	add("prop.delta.srv_us_per_op", "us", "lower")
	add("shard.commit.us_per_op", "us", "lower")
	add("shard.route_overhead_us_per_op", "us", "lower")
	add("shard.related.us_per_op", "us", "lower")
	add("shard.cross_shard_commits", "count", "lower")
	add("shard.busiest_share", "ratio", "lower")
	add("host.steal_ratio", "ratio", "lower")
	add("loadgen.cpu_ms_per_op", "ms", "lower")
	add("loadgen.prepare_s", "s", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	return out
}()
