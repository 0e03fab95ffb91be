package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphitti/internal/httpapi"
)

const (
	// setupRuns is how many times a run starts the server from the
	// preload and warms it; setup_s is the median. Only the last
	// instance goes on to the measured phase.
	setupRuns = 5
	// restarts is how many times the run restarts the server over what
	// the kill left behind; recover_s is the fastest.
	restarts = 3
	// oracleStride is the share of a static workload's responses checked
	// byte for byte against the in-process oracle: one in oracleStride.
	oracleStride = 10
)

// result is one run's outcome: the metrics by name, and the op counts
// the goodput ratio is made of.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Scale     float64            `json:"scale"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info carries what is printed beside the metrics but is not one:
	// sample counts, the stream fingerprint, steal per phase.
	Info  map[string]string `json:"info,omitempty"`
	Notes []string          `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...interface{}) {
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// prepared is the harness-side input of a run: the stream, the oracle
// holding the preload, and the files the server is started from.
type prepared struct {
	w        *workload
	st       *stream
	or       *oracle
	snap     []byte // the preload snapshot, also at snapPath
	snapPath string
	rules    string
	seconds  float64 // time spent preparing
}

func prepare(e *env, w *workload, seed int64, scale float64) (*prepared, error) {
	start := time.Now()
	p := &prepared{w: w, st: generate(w, seed, scale)}
	var err error
	if p.or, p.snap, err = buildPreload(w, p.st, seed); err != nil {
		return nil, err
	}
	p.snapPath = e.tempPath("preload.json")
	if err := os.WriteFile(p.snapPath, p.snap, 0o644); err != nil {
		return nil, err
	}
	if w.rules {
		p.rules = e.tempPath("rules.json")
		raw, err := json.Marshal([]interface{}{sessionRule})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(p.rules, raw, 0o644); err != nil {
			return nil, err
		}
	}
	p.seconds = time.Since(start).Seconds()
	return p, nil
}

// serverArgs is the command line of the workload's server. dataDir is
// ignored by in-memory workloads; snapshot seeds an empty store or data
// directory and is ignored by a directory that already holds state.
func (p *prepared) serverArgs(snapshot, dataDir string) []string {
	args := []string{"-snapshot", snapshot}
	if p.w.dataDir {
		args = append(args, "-data-dir", dataDir)
	}
	if p.w.compactMiB > 0 {
		args = append(args, "-compact-threshold-mib", strconv.Itoa(p.w.compactMiB))
	}
	if p.w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(p.w.shards))
	}
	if p.rules != "" {
		args = append(args, "-rules", p.rules)
	}
	return args
}

// live is a started, warmed server with its clients.
type live struct {
	srv     *server
	cs      []*client
	ids     []uint64
	rec     *record
	dataDir string
}

func (l *live) stop() {
	for _, c := range l.cs {
		c.close()
	}
	l.srv.kill()
}

// setUp starts the workload's server from the preload and runs the
// warm-up through nClients clients. It returns the time from exec to
// warm-up done.
func (p *prepared) setUp(ctx context.Context, e *env, nClients int) (*live, float64, error) {
	l := &live{ids: append([]uint64(nil), p.or.ids...), rec: newRecord(len(p.st.ops))}
	if p.w.dataDir {
		l.dataDir = e.tempPath("data")
	}
	start := time.Now()
	var err error
	if l.srv, err = startServer(ctx, e, p.serverArgs(p.snapPath, l.dataDir)...); err != nil {
		return nil, 0, err
	}
	for c := 0; c < nClients; c++ {
		l.cs = append(l.cs, newClient(l.srv.base))
	}
	runOps(ctx, l.cs, p.st, 0, p.st.warm, l.ids, l.rec)
	return l, time.Since(start).Seconds(), nil
}

// measured is the raw outcome of the measured phase.
type measured struct {
	wall  time.Duration
	cpu   float64 // server CPU seconds
	steal float64
	self  float64 // harness CPU seconds
	rss   float64
}

// measure runs the measured phase. The load generator's collector is
// off for the duration: a collection would stall both clients at once.
func (l *live) measure(ctx context.Context, st *stream) (measured, error) {
	var m measured
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	host, err := readHostCPU()
	if err != nil {
		return m, err
	}
	self := selfCPUSeconds()
	pid := l.srv.pid()
	before, err := cpuSeconds(pid)
	if err != nil {
		return m, err
	}
	m.wall = runOps(ctx, l.cs, st, st.warm, len(st.ops), l.ids, l.rec)
	after, err := cpuSeconds(pid)
	if err != nil {
		return m, fmt.Errorf("server gone during the measured phase: %w\n%s", err, l.srv.stderrTail())
	}
	m.cpu = after - before
	m.steal = stealSince(host)
	m.self = selfCPUSeconds() - self
	m.rss, err = peakRSSMiB(pid)
	return m, err
}

// classLatencies returns the latencies in ms of the measured ops of
// class cl that did not fail.
func classLatencies(st *stream, rec *record, cl class) []float64 {
	var out []float64
	for i := st.warm; i < len(st.ops); i++ {
		if st.ops[i].cl == cl {
			if _, bad := rec.fail[i]; !bad {
				out = append(out, float64(rec.latNs[i])/1e6)
			}
		}
	}
	return out
}

// newRun prepares a run's input and starts its result.
func newRun(e *env, w *workload, seed int64, scale float64, traced bool) (*result, *prepared, error) {
	p, err := prepare(e, w, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Workload: w.name, Seed: seed, Scale: scale, Trace: traced,
		Metrics: map[string]float64{}, Info: map[string]string{}}
	res.Info["stream"] = p.st.hash()
	res.Info["sizes"] = fmt.Sprintf("preload=%d warmup=%d ops=%d", len(p.st.preload), p.st.warm, p.st.measured())
	return res, p, nil
}

// runE2E is one end-to-end run of one workload.
func runE2E(ctx context.Context, e *env, w *workload, seed int64, scale float64) (*result, error) {
	res, p, err := newRun(e, w, seed, scale, false)
	if err != nil {
		return nil, err
	}
	if _, err := runLive(ctx, e, p, res, false); err != nil {
		return nil, err
	}
	return res, nil
}

// liveOutcome is what the traced run reads off a live run beyond the
// end-to-end metrics: the per-op record, and the server's own /metrics
// and /api/stats around the measured phase.
type liveOutcome struct {
	rec           *record
	before, after map[string]float64
	stats         []byte
}

// runLive is the run against the live server, shared by the end-to-end
// and the traced run: set-up, warm-up, gate, measured phase,
// verification, kill -9, restarts. Every timing is reported as clocked.
// With scraped set it also reads the server's metrics around the measured
// phase; the end-to-end run sends the server nothing but the stream.
func runLive(ctx context.Context, e *env, p *prepared, res *result, scraped bool) (*liveOutcome, error) {
	lap := stopwatch{last: time.Now()}
	w, st := p.w, p.st

	// The oracle's serial replay comes first, so that nothing but the
	// gate stands between the set-ups and the measured phase.
	var expect map[int]uint32
	if w.static() {
		expect = oracleAnswers(p)
	} else if err := p.or.applyTo(st, len(st.ops)); err != nil {
		return nil, err
	}
	lap.mark("oracle")

	// Set-up, several times over; the last instance is kept. The server
	// loading its snapshot is also the busy interval the quiet-host gate
	// needs: steal is only visible to a running vCPU.
	host, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	var l *live
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		if l != nil {
			l.stop()
		}
		var s float64
		if l, s, err = p.setUp(ctx, e, clients); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer func() { l.stop() }()
	gate := quietGate(ctx, stealSince(host))
	res.Info["steal.gate"] = fmt.Sprintf("%.4f", gate)
	lap.mark("setups+gate")

	out := &liveOutcome{rec: l.rec}
	admin := newClient(l.srv.base)
	defer admin.close()
	if scraped {
		if out.before, err = scrape(admin); err != nil {
			return nil, err
		}
	}
	m, err := l.measure(ctx, st)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if scraped {
		if out.after, err = scrape(admin); err != nil {
			return nil, err
		}
		if out.stats, err = admin.get("/api/stats"); err != nil {
			return nil, err
		}
	}
	lap.mark("measured")

	// Every timing metric is taken over the whole measured phase. A
	// write workload's store grows severalfold during it and per-op cost
	// with it, so equal-op-count blocks are points on a slope, not
	// repeated samples: their median is the value of the two middle
	// blocks, a tenth of the data, and repeated worse than the totals.
	ok := st.measured()
	for i := range l.rec.fail {
		if i >= st.warm {
			ok--
		}
	}
	lat := classLatencies(st, l.rec, w.headline)
	res.Info["headline"] = fmt.Sprintf("%s n=%d (%d beyond p90)", w.headline, len(lat), len(lat)/10)
	n := float64(st.measured())
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["ops_per_s"] = float64(ok) / m.wall.Seconds()
	res.Metrics["p50_ms"] = percentile(lat, 0.50)
	res.Metrics["p90_ms"] = percentile(lat, 0.90)
	res.Metrics["cpu_ms_per_op"] = m.cpu * 1000 / n
	res.Metrics["rss_peak_mb"] = m.rss
	// What says whether the run is believable: the host's speed wanders,
	// and the load generator does the same work for the same stream on
	// every run, so its own CPU per op moves with the host.
	res.Metrics["host.steal_ratio"] = m.steal
	res.Metrics["loadgen.cpu_ms_per_op"] = m.self * 1000 / n
	res.Metrics["loadgen.prepare_s"] = p.seconds
	res.Info["host"] = fmt.Sprintf("steal %.4f over the measured phase; load generator %.4f ms CPU per op, prepare %.2f s",
		m.steal, m.self*1000/n, p.seconds)

	// Verification of the live end state.
	failed := len(l.rec.fail)
	for i, why := range l.rec.fail {
		res.note("op %d (%s): %s", i, st.ops[i].cl, why)
	}
	if w.static() {
		failed += verifyStatic(p, l.rec, expect, admin, res)
	}
	want := p.or.endState()
	lost, err := verifyState(admin, want, "after the measured phase", res)
	if err != nil {
		return nil, err
	}

	// What a restart reads: the data directory, or for an in-memory
	// server the snapshot an operator would have taken.
	restartArgs := p.serverArgs(p.snapPath, l.dataDir)
	diskPath := l.dataDir
	if !w.dataDir {
		snap, err := admin.get("/api/snapshot")
		if err != nil {
			return nil, err
		}
		diskPath = e.tempPath("end-state.json")
		if err := os.WriteFile(diskPath, snap, 0o644); err != nil {
			return nil, err
		}
		restartArgs = p.serverArgs(diskPath, "")
	}
	l.stop()
	disk, err := dirBytes(diskPath)
	if err != nil {
		return nil, err
	}
	res.Metrics["disk_bytes_per_ann"] = float64(disk) / float64(want.annotations)
	lap.mark("verify")

	var recovers []float64
	for r := 0; r < restarts; r++ {
		start := time.Now()
		srv, err := startServer(ctx, e, restartArgs...)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", r+1, err)
		}
		recovers = append(recovers, time.Since(start).Seconds())
		rc := newClient(srv.base)
		n, err := verifyState(rc, want, fmt.Sprintf("after restart %d", r+1), res)
		rc.close()
		srv.kill()
		if err != nil {
			return nil, err
		}
		if n > lost {
			lost = n
		}
	}
	res.Metrics["recover_s"] = minOf(recovers)
	lap.mark("restarts")
	res.Info["wall"] = lap.String()

	res.Attempted = len(st.ops)
	if res.Failed = failed + lost; res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Metrics["goodput_ratio"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	return out, nil
}

// stopwatch records how long each phase of a run took, for the wall
// line: the run has a time cap, and this says where the time goes.
type stopwatch struct {
	last  time.Time
	parts []string
}

func (s *stopwatch) mark(phase string) {
	now := time.Now()
	s.parts = append(s.parts, fmt.Sprintf("%s=%.1fs", phase, now.Sub(s.last).Seconds()))
	s.last = now
}

func (s *stopwatch) String() string { return strings.Join(s.parts, " ") }

// verifyState compares the server behind c with the oracle's end state
// and returns how many annotations disagree.
func verifyState(c *client, want endState, when string, res *result) (int, error) {
	got, err := serverState(c)
	if err != nil {
		return 0, fmt.Errorf("read server state %s: %w", when, err)
	}
	bad, notes := want.diff(got)
	for _, n := range notes {
		res.note("%s: %s", when, n)
	}
	return bad, nil
}

// oracleAnswers computes, in process, the checksum of the answer the
// server must give to every oracleStride-th measured op of a static
// workload: the oracle's store behind the same handler.
func oracleAnswers(p *prepared) map[int]uint32 {
	h := httpapi.NewHandler(p.or.store)
	expect := make(map[int]uint32)
	for i := p.st.warm; i < len(p.st.ops); i += oracleStride {
		expect[i] = crc32.Checksum(serveInProcess(h, &p.st.ops[i], p.or.ids).Body.Bytes(), castagnoli)
	}
	return expect
}

// serveInProcess runs one op through an in-process handler.
func serveInProcess(h http.Handler, o *op, ids []uint64) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(o.method, o.target(ids), bytes.NewReader(o.body)))
	return rr
}

// verifyStatic checks a static workload's answers: the warm-up's repeat
// in the measured pass byte for byte, the oracle's sample, and the
// ground truth workload.Influenza plants. It returns the failures.
func verifyStatic(p *prepared, rec *record, expect map[int]uint32, c *client, res *result) int {
	bad := 0
	st := p.st
	for i := 0; i < st.warm; i++ {
		if rec.crc[i] != rec.crc[st.warm+i] || rec.size[i] != rec.size[st.warm+i] {
			bad++
			res.note("op %d (%s): answer changed between warm-up and measured pass", st.warm+i, st.ops[i].cl)
		}
	}
	idx := make([]int, 0, len(expect))
	for i := range expect {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		if rec.crc[i] != expect[i] {
			bad++
			res.note("op %d (%s): answer differs from the oracle's", i, st.ops[i].cl)
		}
	}
	res.Info["oracle"] = fmt.Sprintf("%d answers checked byte for byte, %d warm-up repeats", len(expect), st.warm)

	// Only the planted chain annotations carry the token "chain".
	body, err := c.get("/api/annotations?keyword=chain")
	var hits []struct{ Title string }
	if err == nil {
		err = json.Unmarshal(body, &hits)
	}
	planted := 0
	for _, h := range hits {
		if strings.HasPrefix(h.Title, "protease chain ") {
			planted++
		}
	}
	if err != nil || planted != plantedChains*plantedPerCh || len(hits) != planted {
		bad++
		res.note("planted ground truth: %d hits, %d planted, want %d (%v)", len(hits), planted, plantedChains*plantedPerCh, err)
	}
	return bad
}
