package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTimeoutServer serves the influenza study with a per-request query
// budget so small that any real scan or join exceeds it.
func newTimeoutServer(t *testing.T, d deployment) *httptest.Server {
	t.Helper()
	return d.start(t, influenzaStore(t, 200), Options{QueryTimeout: time.Nanosecond})
}

// TestSearchTimeout checks /api/search returns a 408 JSON error when the
// configured per-request budget expires mid-scan.
func TestSearchTimeout(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts := newTimeoutServer(t, d)
		var body struct {
			Error string `json:"error"`
		}
		code := postJSON2(t, ts.URL+"/api/search",
			map[string]string{"expr": `contains(/annotation/body, "protease")`}, &body)
		if code != http.StatusRequestTimeout {
			t.Fatalf("status = %d, want 408", code)
		}
		if !strings.Contains(body.Error, "deadline") {
			t.Fatalf("error body %q does not mention the deadline", body.Error)
		}
	})
}

// TestQueryTimeout checks /api/query honors the same budget.
func TestQueryTimeout(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts := newTimeoutServer(t, d)
		var body struct {
			Error string `json:"error"`
		}
		code := postJSON2(t, ts.URL+"/api/query", map[string]string{"query": `
	select contents
	where {
	  ?a isa annotation ; contains "protease" .
	  ?r isa referent ; kind interval .
	  ?a annotates ?r .
	}`}, &body)
		if code != http.StatusRequestTimeout {
			t.Fatalf("status = %d, want 408", code)
		}
		if !strings.Contains(body.Error, "deadline") {
			t.Fatalf("error body %q does not mention the deadline", body.Error)
		}
	})
}

// TestNoTimeoutByDefault checks the zero option imposes no budget.
func TestNoTimeoutByDefault(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		var out []map[string]interface{}
		code := postJSON2(t, ts.URL+"/api/search",
			map[string]string{"expr": `contains(/annotation/body, "protease")`}, &out)
		if code != http.StatusOK {
			t.Fatalf("status = %d, want 200", code)
		}
	})
}

// postJSON2 posts a body and decodes the response regardless of status
// (the shared postJSON helper only decodes 2xx responses).
func postJSON2(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}
