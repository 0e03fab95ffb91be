package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
)

// keyOnShard finds a routing key ("<prefix>-<i>") the router places on
// shard want, so tests can aim writes at a specific pipeline.
func keyOnShard(t *testing.T, shards, want int, prefix string) string {
	t.Helper()
	r := core.Router{Shards: shards}
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if r.ShardOfKey(k) == want {
			return k
		}
	}
	t.Fatalf("no %s key hashes to shard %d/%d", prefix, want, shards)
	return ""
}

func seqAnnReq(domain string) map[string]interface{} {
	return map[string]interface{}{
		"creator": "u", "date": "2026-08-08", "body": "written into " + domain,
		"marks": []map[string]interface{}{
			{"type": "sequence", "seqId": domain, "lo": 1, "hi": 20},
		},
	}
}

func registerDomainSeq(t *testing.T, sh *shard.Store, domain string) {
	t.Helper()
	sq, err := seq.New(domain, seq.DNA, strings.Repeat("ACGT", 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Apply(persist.SequenceOp(sq)); err != nil {
		t.Fatalf("register %s: %v", domain, err)
	}
}

// TestShardStorePartialDegradation exercises the same fault at the
// shard.Store level: the error carries the shard tag and
// DegradedShards/Health single out the broken pipeline.
func TestShardStorePartialDegradation(t *testing.T) {
	const shards = 2
	sc := faultfs.NewScript()
	sh, err := shard.Open(t.TempDir(), shards, durable.Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	domains := make([]string, shards)
	for k := 0; k < shards; k++ {
		domains[k] = keyOnShard(t, shards, k, "dom")
		registerDomainSeq(t, sh, domains[k])
	}

	sc.FailPath(faultfs.OpSync, "shard-1", 1,
		faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})

	commitTo := func(domain string) error {
		b := sh.NewAnnotation().Creator("u").Date("2026-08-08").Body("x")
		m, err := sh.MarkSequenceInterval(domain, interval.Interval{Lo: 2, Hi: 9})
		if err != nil {
			return err
		}
		_, err = sh.Commit(b.Refer(m))
		return err
	}

	err = commitTo(domains[1])
	var se *shard.Error
	if err == nil || !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("faulted commit error not tagged with shard 1: %v", err)
	}
	if err := commitTo(domains[0]); err != nil {
		t.Fatalf("healthy shard commit while shard 1 degraded: %v", err)
	}
	if got := sh.DegradedShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DegradedShards = %v, want [1]", got)
	}
	for _, h := range sh.Health() {
		healthy := h.State == durable.StateHealthy
		if healthy == (h.Shard == 1) {
			t.Fatalf("shard %d health %v, want only shard 1 degraded", h.Shard, h.State)
		}
	}

	if err := sh.Reopen(1); err != nil {
		t.Fatalf("reopen shard 1: %v", err)
	}
	if err := commitTo(domains[1]); err != nil {
		t.Fatalf("post-reopen commit: %v", err)
	}
	if got := sh.DegradedShards(); len(got) != 0 {
		t.Fatalf("DegradedShards after reopen = %v, want none", got)
	}
}

// TestShardedPartialDegradation is the degraded-shard story over HTTP:
// a disk fault on ONE shard turns that pipeline read-only — its writes
// answer 503 naming the shard — while writes routed to the other shards
// keep succeeding; /readyz flips to 503 with the shard in the reason
// until POST /api/recover?shard=k repairs exactly that pipeline.
func TestShardedPartialDegradation(t *testing.T) {
	const shards = 3
	sc := faultfs.NewScript()
	sh, err := shard.Open(t.TempDir(), shards, durable.Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ts := httptest.NewServer(NewShardedHandler(sh))
	defer ts.Close()

	domains := make([]string, shards)
	for k := 0; k < shards; k++ {
		domains[k] = keyOnShard(t, shards, k, "chr")
		registerDomainSeq(t, sh, domains[k])
		if resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", seqAnnReq(domains[k])); resp.StatusCode != http.StatusCreated {
			t.Fatalf("healthy write shard %d: %d (%s)", k, resp.StatusCode, body)
		}
	}

	// Break shard 1's disk under its next fdatasync. The other shards'
	// files never see the fault.
	sc.FailPath(faultfs.OpSync, "shard-1", 1,
		faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})

	resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", seqAnnReq(domains[1]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted write: %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("faulted write missing Retry-After")
	}
	var eb struct {
		Error string `json:"error"`
		Shard *int   `json:"shard"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("faulted write body not an error envelope: %s", body)
	}
	if eb.Shard == nil || *eb.Shard != 1 {
		t.Fatalf("503 envelope does not name shard 1: %s", body)
	}

	// Shard 1 stays degraded; shards 0 and 2 keep accepting writes.
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/annotations", seqAnnReq(domains[1])); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded shard write: %d", resp.StatusCode)
	}
	for _, k := range []int{0, 2} {
		if resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", seqAnnReq(domains[k])); resp.StatusCode != http.StatusCreated {
			t.Fatalf("healthy shard %d write while shard 1 degraded: %d (%s)", k, resp.StatusCode, body)
		}
	}
	// Reads — including from the degraded shard — answer 200.
	if resp, _ := doJSON(t, "GET", ts.URL+"/api/annotations", nil); resp.StatusCode != 200 {
		t.Fatalf("degraded read: %d", resp.StatusCode)
	}

	// /healthz stays 200 but reports the shard; /readyz flips to 503.
	resp, body = doJSON(t, "GET", ts.URL+"/healthz", nil)
	var hv struct {
		Status         string `json:"status"`
		Reason         string `json:"reason"`
		DegradedShards []int  `json:"degradedShards"`
	}
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || hv.Status != "degraded" {
		t.Fatalf("degraded /healthz: %d %+v", resp.StatusCode, hv)
	}
	if !strings.Contains(hv.Reason, "shard 1") || len(hv.DegradedShards) != 1 || hv.DegradedShards[0] != 1 {
		t.Fatalf("/healthz does not name shard 1: %+v", hv)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded /readyz: %d", resp.StatusCode)
	}

	// Targeted recovery of exactly the broken shard.
	resp, body = doJSON(t, "POST", ts.URL+"/api/recover?shard=1", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("recover shard 1: %d (%s)", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != 200 {
		t.Fatalf("post-recovery /readyz: %d", resp.StatusCode)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", seqAnnReq(domains[1])); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-recovery write: %d (%s)", resp.StatusCode, body)
	}

	// Out-of-range shard parameter is a client error.
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/recover?shard=9", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("recover bad shard: %d", resp.StatusCode)
	}
}
