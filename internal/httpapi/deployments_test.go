package httpapi

// The deployment table. Every route has one body over one shard set, so
// the handler tests run their requests against each shape that set can
// take and expect one behaviour; TestDeploymentsAgree holds the shapes to
// the same status codes and — on the data routes — the same bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// deployment is one shape of the shard set behind the handler.
type deployment struct {
	name    string
	shards  int
	durable bool
	// fromCore serves an existing *core.Store through the adapter
	// NewHandler uses, instead of restoring its export into a fresh set.
	fromCore bool
}

// overCore is what NewHandler(*core.Store) serves, and where the tests of
// what does not depend on the store's shape (middleware, encoder) run.
var overCore = deployment{name: "memory-1-core", shards: 1, fromCore: true}

// deployments runs fn as a subtest over each deployment: in-memory N=1
// over a *core.Store, durable N=1 in the root layout, in-memory N=3 and
// durable N=3.
func deployments(t *testing.T, fn func(t *testing.T, d deployment)) {
	for _, d := range []deployment{
		overCore,
		{name: "durable-1-root", shards: 1, durable: true},
		{name: "memory-3", shards: 3},
		{name: "durable-3", shards: 3, durable: true},
	} {
		t.Run(d.name, func(t *testing.T) { fn(t, d) })
	}
}

// influenzaStore generates the influenza study with n annotations.
func influenzaStore(t *testing.T, n int) *core.Store {
	t.Helper()
	cfg := workload.DefaultInfluenza
	cfg.Annotations = n
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return study.Store
}

// memorySet is the shard set NewHandler builds over a core store.
func memorySet(cs *core.Store) *shard.Store {
	return shard.Single(durable.Memory(cs, core.StoreOptions{}))
}

// open returns the deployment's shard set over dir (ignored without a
// log), closed with the test.
func (d deployment) open(t *testing.T, dir string, opts durable.Options) *shard.Store {
	t.Helper()
	if !d.durable {
		return shard.New(d.shards)
	}
	sh, err := shard.Open(dir, d.shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// serve returns the deployment's shard set holding seed's state.
func (d deployment) serve(t *testing.T, seed *core.Store) *shard.Store {
	t.Helper()
	if d.fromCore {
		return memorySet(seed)
	}
	sh := d.open(t, t.TempDir(), durable.Options{})
	snap, err := persist.Export(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	return sh
}

// start serves seed's state over the deployment with opts.
func (d deployment) start(t *testing.T, seed *core.Store, opts Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(d.serve(t, seed), opts))
	t.Cleanup(ts.Close)
	return ts
}

// exchange is one request of the agreement script and its answer.
type exchange struct {
	name   string
	status int
	// body is kept where the deployments must agree on it byte for byte:
	// the success bodies of the data routes. Error envelopes carry a
	// request ID and /api/stats an epoch and the shard set's own section.
	body []byte
	// perStore marks an answer that carries the planner's account of the
	// query (variable order, candidate counts), which each store gives of
	// its own contents: the body agrees between one-pipeline deployments.
	perStore bool
}

// agreementSeed is the state every deployment restores: the influenza
// study (eight coordinate domains, a tree, an ontology — so three shards
// each hold part of it) with two annotations sharing a mark, a third
// overlapping it, and an overlap rule deriving facts between them. shared
// is an annotation with both related annotations and derived facts.
func agreementSeed(t *testing.T) (seed *core.Store, shared uint64) {
	t.Helper()
	s := influenzaStore(t, 60)
	for _, iv := range []interval.Interval{span(500, 600), span(500, 600), span(550, 650)} {
		m, err := s.MarkDomainInterval("segment1", iv)
		if err != nil {
			t.Fatal(err)
		}
		ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Body("shared mark").Refer(m))
		if err != nil {
			t.Fatal(err)
		}
		if shared == 0 {
			shared = ann.ID
		}
	}
	if err := prop.Attach(s).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "segment1"}); err != nil {
		t.Fatal(err)
	}
	if rel, err := s.RelatedAnnotations(shared); err != nil || len(rel) == 0 {
		t.Fatalf("seed annotation %d has no related annotations (err %v)", shared, err)
	}
	if len(s.View().DerivedFrom(shared)) == 0 {
		t.Fatalf("seed annotation %d derives nothing", shared)
	}
	return s, shared
}

// agreementScript sends the script to one deployment. shared is an
// annotation that has related annotations and derived facts.
func agreementScript(t *testing.T, base string, shared uint64, snap []byte) []exchange {
	t.Helper()
	var out []exchange
	do := func(name, method, path string, body []byte, keep bool) []byte {
		t.Helper()
		status, got := fetch(t, method, base+path, body)
		x := exchange{name: name, status: status}
		if keep && status < 300 {
			x.body = got
		}
		out = append(out, x)
		return got
	}
	get := func(name, path string) []byte { return do(name, "GET", path, nil, true) }
	post := func(name, path, body string) []byte { return do(name, "POST", path, []byte(body), true) }

	// One snapshot in, whatever the set held before.
	do("restore", "POST", "/api/restore", snap, false)

	// The data routes. The list is the merge of the shards' lists, so its
	// bytes agreeing with the one-store deployment is also its ID order.
	id := fmt.Sprint(shared)
	get("get", "/api/annotations/"+id)
	get("list", "/api/annotations")
	get("keyword", "/api/annotations?keyword=protease")
	get("related", "/api/annotations/"+id+"/related")
	get("correlated", "/api/annotations/"+id+"/correlated")
	post("search", "/api/search", `{"expr":"contains(/annotation/body, 'protease')"}`)
	post("query", "/api/query", parityQuery)
	post("query two annotation variables, capped", "/api/query",
		`{"query":"select contents where { ?a isa annotation ; contains \"shared\" . ?b isa annotation ; contains \"shared\" . ?r isa referent . ?a annotates ?r . ?b annotates ?r . }","maxResults":3}`)
	out[len(out)-1].perStore = true
	post("query explain", "/api/query?explain=1", parityQuery)
	out[len(out)-1].perStore = true
	get("referents", "/api/referents?domain=segment1&pos=550")
	get("objects", "/api/objects")
	get("objects by type", "/api/objects?type=phylo_trees")
	get("provenance", "/api/provenance/"+id)
	get("rules", "/api/rules")
	get("snapshot", "/api/snapshot")

	// Client errors.
	get("get missing", "/api/annotations/99999")
	get("get bad id", "/api/annotations/not-a-number")
	get("related missing", "/api/annotations/99999/related")
	get("provenance missing", "/api/provenance/99999")
	get("referents without domain", "/api/referents?pos=10")
	post("search bad expression", "/api/search", `{"expr":"((("}`)
	post("query syntax error", "/api/query", `{"query":"select nothing"}`)
	post("create bad mark", "/api/annotations",
		`{"creator":"x","date":"2008-01-01","marks":[{"type":"interval","domain":"segment1","lo":90,"hi":10}]}`)
	post("create unknown mark type", "/api/annotations", `{"creator":"x","date":"2008-01-01","marks":[{"type":"hologram"}]}`)
	post("create bad JSON", "/api/annotations", `{nope`)
	post("restore bad JSON", "/api/restore", `{nonsense`)
	post("rule duplicate", "/api/rules", `{"id":"ov","edge":"overlap","domain":"segment1"}`)
	post("rule bad edge", "/api/rules", `{"id":"bad","edge":"warp"}`)
	do("rule delete missing", "DELETE", "/api/rules/no-such-rule", nil, true)

	// Mutations: the created annotation gets the same ID everywhere (the
	// snapshot carries the counters), so its body agrees too.
	created := post("create", "/api/annotations",
		`{"creator":"http-user","date":"2008-04-07","title":"posted over HTTP","body":"protease-ish observation",`+
			`"marks":[{"type":"interval","domain":"segment1","lo":10,"hi":90}],"terms":[{"Ontology":"go","TermID":"protease"}]}`)
	var ann struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(created, &ann); err != nil {
		t.Fatalf("created annotation: %v (%s)", err, created)
	}
	get("list after create", "/api/annotations")
	do("delete", "DELETE", fmt.Sprintf("/api/annotations/%d", ann.ID), nil, true)
	do("delete again", "DELETE", fmt.Sprintf("/api/annotations/%d", ann.ID), nil, true)
	post("rule add", "/api/rules", `{"id":"ov2","edge":"overlap","domain":"segment2"}`)
	do("rule delete", "DELETE", "/api/rules/ov2", nil, true)

	// The set's own snapshot restores into it and changes nothing.
	do("restore own snapshot", "POST", "/api/restore", get("snapshot after mutations", "/api/snapshot"), false)
	get("list after restore", "/api/annotations")
	return out
}

// TestDeploymentsAgree: after POST /api/restore of one snapshot, every
// deployment answers the script with the same status codes and, on the
// data routes, the same bytes as the in-memory store behind NewHandler —
// which at three shards takes routed mutations, merged lists in ID order,
// a search and a query fanned out over every shard, and a snapshot →
// restore round trip through the API.
func TestDeploymentsAgree(t *testing.T) {
	seed, shared := agreementSeed(t)
	var snap bytes.Buffer
	if err := persist.Write(seed, &snap); err != nil {
		t.Fatal(err)
	}

	var want []exchange
	deployments(t, func(t *testing.T, d deployment) {
		sh := d.serve(t, core.NewStore())
		ts := httptest.NewServer(New(sh, Options{}))
		defer ts.Close()
		got := agreementScript(t, ts.URL, shared, snap.Bytes())

		// The sharding section names this deployment; the rest of
		// /api/stats is the store's, and agrees.
		var stats struct {
			core.Stats
			Sharding struct {
				Shards     int             `json:"shards"`
				Durability []durable.Stats `json:"durability"`
			} `json:"sharding"`
		}
		if code := getJSON(t, ts.URL+"/api/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
		if stats.Stats != seed.Stats() {
			t.Errorf("stats = %+v, want the seed's %+v", stats.Stats, seed.Stats())
		}
		if stats.Sharding.Shards != d.shards {
			t.Errorf("sharding.shards = %d, want %d", stats.Sharding.Shards, d.shards)
		}
		wantDurability, wantRecover := 0, http.StatusBadRequest
		if d.durable {
			wantDurability, wantRecover = d.shards, http.StatusOK
		}
		if got := len(stats.Sharding.Durability); got != wantDurability {
			t.Errorf("sharding.durability has %d entries, want %d", got, wantDurability)
		}
		for k := 0; k < sh.NumShards(); k++ {
			if sh.View(k).Stats().Annotations == 0 {
				t.Errorf("shard %d holds no annotation: the script never crossed it", k)
			}
		}
		// POST /api/recover is the one status that follows the deployment.
		if code, _ := fetch(t, "POST", ts.URL+"/api/recover", nil); code != wantRecover {
			t.Errorf("recover on a healthy store (durable=%v): %d, want %d", d.durable, code, wantRecover)
		}

		if want == nil {
			want = got
			for _, x := range got {
				if x.status >= 500 {
					t.Errorf("%s: status %d", x.name, x.status)
				}
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("script ran %d exchanges, the first deployment %d", len(got), len(want))
		}
		for i, x := range got {
			if x.status != want[i].status {
				t.Errorf("%s: status %d, the first deployment answered %d", x.name, x.status, want[i].status)
			}
			if x.perStore && d.shards > 1 {
				continue
			}
			if !bytes.Equal(x.body, want[i].body) {
				t.Errorf("%s: body differs from the first deployment's:\n got %.300s\nwant %.300s", x.name, x.body, want[i].body)
			}
		}
	})
}
