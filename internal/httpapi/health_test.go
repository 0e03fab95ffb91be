package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
	"graphitti/internal/persist"
)

// The degraded-server test drives the full production story over HTTP:
// a disk fault mid-write turns the store read-only — the failing write
// and all later ones answer 503 with Retry-After, reads and /healthz
// stay 200, /readyz flips to 503 — until POST /api/recover re-validates
// the directory and restores read-write service.

type healthBody struct {
	Status string `json:"status"`
	State  string `json:"state"`
	Reads  bool   `json:"reads"`
	Writes bool   `json:"writes"`
	Reason string `json:"reason,omitempty"`
}

// doJSON is postJSON/getJSON with response headers exposed.
func doJSON(t *testing.T, method, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestDegradedServerServesReadsRefusesWrites(t *testing.T) {
	sc := faultfs.NewScript()
	d, err := durable.Open(t.TempDir(), durable.Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sq, err := seq.New("chr1", seq.DNA, strings.Repeat("ACGT", 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(persist.SequenceOp(sq)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewDurableHandler(d))
	defer ts.Close()

	annReq := map[string]interface{}{
		"creator": "u", "date": "2026-08-08", "body": "written over http",
		"marks": []map[string]interface{}{
			{"type": "sequence", "seqId": "chr1", "lo": 1, "hi": 20},
		},
	}

	// Healthy baseline: write acks, both probes 200 and write-ready.
	if resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", annReq); resp.StatusCode != http.StatusCreated {
		t.Fatalf("healthy write: %d (%s)", resp.StatusCode, body)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, body := doJSON(t, "GET", ts.URL+probe, nil)
		var hv healthBody
		if err := json.Unmarshal(body, &hv); err != nil {
			t.Fatalf("%s: %v", probe, err)
		}
		if resp.StatusCode != 200 || hv.Status != "ok" || !hv.Writes {
			t.Fatalf("healthy %s: %d %+v", probe, resp.StatusCode, hv)
		}
	}

	// Break the disk under the next fdatasync: the in-flight write must
	// be refused — 503, Retry-After, a JSON error envelope — not acked.
	sc.FailAt(faultfs.OpSync, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
	resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", annReq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted write: %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("faulted write missing Retry-After")
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("faulted write body not an error envelope: %s", body)
	}

	// Degraded: writes 503, reads 200, liveness 200-but-degraded,
	// readiness 503 + Retry-After.
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/annotations", annReq); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write: %d", resp.StatusCode)
	}
	if resp, body := doJSON(t, "GET", ts.URL+"/api/stats", nil); resp.StatusCode != 200 {
		t.Fatalf("degraded read: %d (%s)", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/healthz", nil)
	var hv healthBody
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || hv.Status != "degraded" || !hv.Reads || hv.Writes || hv.Reason == "" {
		t.Fatalf("degraded /healthz: %d %+v", resp.StatusCode, hv)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded /readyz: %d (Retry-After=%q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Explicit recovery over HTTP (the script rule already fired once, so
	// the "disk" is repaired): service returns to read-write.
	resp, body = doJSON(t, "POST", ts.URL+"/api/recover", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("recover: %d (%s)", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/readyz", nil); resp.StatusCode != 200 {
		t.Fatalf("post-recovery /readyz: %d", resp.StatusCode)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", annReq); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-recovery write: %d (%s)", resp.StatusCode, body)
	}
}

// TestRecoverRequiresDurableStore: with no log there is nothing to
// recover (400); a healthy durable store answers 200 and its health.
func TestRecoverRequiresDurableStore(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		want := http.StatusBadRequest
		if d.durable {
			want = http.StatusOK
		}
		for _, path := range []string{"/api/recover", "/api/recover?shard=0"} {
			if resp, body := doJSON(t, "POST", ts.URL+path, nil); resp.StatusCode != want {
				t.Fatalf("POST %s (durable=%v): %d (%s), want %d", path, d.durable, resp.StatusCode, body, want)
			}
		}
	})
}

func TestBodyCap(t *testing.T) {
	ts := httptest.NewServer(New(memorySet(smallStore(t)), Options{MaxBodyBytes: 256}))
	t.Cleanup(ts.Close)
	big := map[string]interface{}{
		"creator": "u", "date": "2026-08-08",
		"body": strings.Repeat("x", 4096),
	}
	resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d (%s)", resp.StatusCode, body)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("oversized-body response not an error envelope: %s", body)
	}
	// A small malformed body is a 400, not a cap error.
	req, err := http.NewRequest("POST", ts.URL+"/api/search", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp2.StatusCode)
	}
}
