package httpapi

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"syscall"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// fetch returns a response body, failing the test on transport errors.
func fetch(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

const parityQuery = `{"query":"select contents where { ?a isa annotation ; contains \"protease\" . }"}`

// logicalStats decodes a /api/stats body and drops what is not logical
// state: the per-process view epoch, and the shard set's own section
// (its channel sequence counts restores).
func logicalStats(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding stats %s: %v", body, err)
	}
	delete(m, "epoch")
	delete(m, "sharding")
	return m
}

// TestSnapshotRestoreRoundTrip drives the full persistence loop through
// the HTTP layer: export via GET /api/snapshot, import via POST
// /api/restore into a server seeded with a different store, and require
// identical /api/stats and /api/query answers afterwards.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	deployments(t, testSnapshotRestoreRoundTrip)
}

func testSnapshotRestoreRoundTrip(t *testing.T, d deployment) {
	src, _ := newTestServer(t, d)

	// A second server with a different (smaller) study: restore must
	// replace this state entirely.
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 5
	cfg.Seed = 99
	other, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := d.start(t, other.Store, Options{})

	code, wantStats := fetch(t, "GET", src.URL+"/api/stats", nil)
	if code != 200 {
		t.Fatalf("source stats: %d", code)
	}
	code, wantQuery := fetch(t, "POST", src.URL+"/api/query", []byte(parityQuery))
	if code != 200 {
		t.Fatalf("source query: %d (%s)", code, wantQuery)
	}

	code, snap := fetch(t, "GET", src.URL+"/api/snapshot", nil)
	if code != 200 {
		t.Fatalf("snapshot: %d", code)
	}
	if code, body := fetch(t, "POST", dst.URL+"/api/restore", snap); code != 200 {
		t.Fatalf("restore: %d (%s)", code, body)
	}

	code, gotStats := fetch(t, "GET", dst.URL+"/api/stats", nil)
	if code != 200 {
		t.Fatalf("restored stats: %d", code)
	}
	// The view epoch is a per-process publish counter, not logical state;
	// replaying a snapshot publishes a different number of views.
	if got, want := logicalStats(t, gotStats), logicalStats(t, wantStats); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats after restore:\n got %v\nwant %v", got, want)
	}
	code, gotQuery := fetch(t, "POST", dst.URL+"/api/query", []byte(parityQuery))
	if code != 200 {
		t.Fatalf("restored query: %d", code)
	}
	if !reflect.DeepEqual(gotQuery, wantQuery) {
		t.Fatalf("query after restore:\n got %s\nwant %s", gotQuery, wantQuery)
	}

	if code, body := fetch(t, "POST", dst.URL+"/api/restore", []byte("{nonsense")); code != 400 {
		t.Fatalf("bad restore body: %d (%s)", code, body)
	}

	// A snapshot pinning an ID past core.MaxID is a client error with the
	// JSON envelope — not a crashed process — and the served store stays.
	hostile, err := persist.Decode(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1 << 62, 1 << 40} {
		hostile.Annotations[0].ID = id
		body, err := json.Marshal(hostile)
		if err != nil {
			t.Fatal(err)
		}
		code, resp := fetch(t, "POST", dst.URL+"/api/restore", body)
		var envelope struct {
			Error string `json:"error"`
		}
		if code != 400 || json.Unmarshal(resp, &envelope) != nil || envelope.Error == "" {
			t.Fatalf("restore with annotation ID %d: %d (%s)", id, code, resp)
		}
	}
	if _, after := fetch(t, "GET", dst.URL+"/api/stats", nil); !bytes.Equal(after, gotStats) {
		t.Fatalf("refused restore changed the store:\n got %s\nwant %s", after, gotStats)
	}
}

// TestRestoreInflateBound: a checkpoint that fits the restore route's
// limit but whose body inflates past it is refused with a 413 before the
// served store is touched, in memory or on disk; under a limit that
// covers its body, the same upload restores.
func TestRestoreInflateBound(t *testing.T) {
	c := checkpointOf(t, influenzaStore(t, 30))
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(c[len("GSNAP\x02") : len(c)-4])))
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(c)+len(body)) / 2
	if int64(len(c)) >= limit {
		t.Fatalf("a checkpoint of %d bytes inflates to only %d", len(c), len(body))
	}
	deployments(t, func(t *testing.T, d deployment) {
		ts := d.start(t, influenzaStore(t, 5), Options{MaxRestoreBytes: limit})
		_, snapBefore := fetch(t, "GET", ts.URL+"/api/snapshot", nil)
		_, statsBefore := fetch(t, "GET", ts.URL+"/api/stats", nil)
		code, resp := fetch(t, "POST", ts.URL+"/api/restore", c)
		if want := fmt.Sprintf("snapshot exceeds %d bytes", limit); code != http.StatusRequestEntityTooLarge || !bytes.Contains(resp, []byte(want)) {
			t.Fatalf("restore inflating %d bytes past a limit of %d: %d (%s), want 413 %q", len(body), limit, code, resp, want)
		}
		if _, after := fetch(t, "GET", ts.URL+"/api/snapshot", nil); !bytes.Equal(after, snapBefore) {
			t.Fatal("the refused restore changed the snapshot")
		}
		if _, after := fetch(t, "GET", ts.URL+"/api/stats", nil); !bytes.Equal(after, statsBefore) {
			t.Fatalf("the refused restore changed the stats:\n got %s\nwant %s", after, statsBefore)
		}

		roomy := d.start(t, influenzaStore(t, 5), Options{MaxRestoreBytes: int64(len(body))})
		if code, resp := fetch(t, "POST", roomy.URL+"/api/restore", c); code != http.StatusOK {
			t.Fatalf("restore under a limit of its inflated size: %d (%s)", code, resp)
		}
	})
}

// TestSnapshotUnderDeletes: one goroutine deletes every annotation while
// the test GETs /api/snapshot in a loop. Every answer is a 200 whose body
// decodes and loads — an export is one pinned view per shard, so a
// deletion beside it cannot leave it naming an annotation or a referent
// that is gone.
func TestSnapshotUnderDeletes(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		anns := 1500
		if testing.Short() {
			anns = 400
		}
		seed := influenzaStore(t, anns)
		var ids []uint64
		seed.View().AnnotationsEach(func(a *core.Annotation) bool { ids = append(ids, a.ID); return true })
		ts := d.start(t, seed, Options{})

		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, id := range ids {
				req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/annotations/%d", ts.URL, id), nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Errorf("delete %d: status %d", id, resp.StatusCode)
					return
				}
			}
		}()
		defer func() { <-done }()

		for deleting := true; deleting; {
			select {
			case <-done:
				deleting = false // one more export, of the emptied store
			default:
			}
			code, body := fetch(t, "GET", ts.URL+"/api/snapshot", nil)
			if code != 200 {
				t.Fatalf("snapshot: %d (%s)", code, body)
			}
			snap, err := persist.Decode(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("snapshot body does not decode: %v (%.200s)", err, body)
			}
			if snap.Version != persist.Version {
				t.Fatalf("snapshot body is not a snapshot: %.200s", body)
			}
			if _, err := persist.Load(snap); err != nil {
				t.Fatalf("snapshot body does not load: %v", err)
			}
		}
	})
}

// TestDurableHandler exercises the API over one existing durable.Store
// (NewDurableHandler): mutations are logged, /api/stats exposes the
// pipeline's durability counters, and a reopened data directory serves
// the same state.
func TestDurableHandler(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewDurableHandler(d))

	// Seed via the restore endpoint, then mutate via the API.
	study, err := workload.Influenza(workload.InfluenzaConfig{
		Seed: 3, Segments: 4, SeqsPerSeg: 2, SeqLen: 400, Annotations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.Write(study.Store, &buf); err != nil {
		t.Fatal(err)
	}
	if code, body := fetch(t, "POST", ts.URL+"/api/restore", buf.Bytes()); code != 200 {
		t.Fatalf("restore into durable: %d (%s)", code, body)
	}

	var stats struct {
		core.Stats
		Sharding struct {
			Durability []durable.Stats `json:"durability"`
		} `json:"sharding"`
	}
	if code := getJSON(t, ts.URL+"/api/stats", &stats); code != 200 {
		t.Fatal("stats failed")
	}
	if len(stats.Sharding.Durability) != 1 {
		t.Fatalf("durable stats missing from /api/stats: %+v", stats.Sharding)
	}
	if stats.Sharding.Durability[0].SnapshotSeq == 0 {
		t.Fatalf("restore did not checkpoint: %+v", stats.Sharding.Durability[0])
	}

	// A mutation through the API must reach the log.
	seqID := study.SequenceIDs[0]
	code := postJSON(t, ts.URL+"/api/annotations", map[string]interface{}{
		"creator": "api-user", "date": "2026-07-29", "body": "durable via http",
		"marks": []map[string]interface{}{
			{"type": "sequence", "seqId": seqID, "lo": 1, "hi": 20},
		},
	}, nil)
	if code != 201 {
		t.Fatalf("create annotation: %d", code)
	}
	preStats := d.Core().Stats()
	ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := durable.Open(dir, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Core().Stats(); got != preStats {
		t.Fatalf("reopened store differs:\n got %+v\nwant %+v", got, preStats)
	}
	if got := d2.Core().SearchKeyword("durable", true); len(got) != 1 {
		t.Fatalf("API-committed annotation did not survive reopen (found %d)", len(got))
	}
}

// TestRestoreStoreFaultIsNotAClientError: a full disk while the restored
// state is checkpointed is the store's failure, not the snapshot's — 5xx
// through writeErr, not the 400 a bad upload gets. The store is not
// degraded by it (the previous checkpoint and log are intact), so /readyz
// stays 200, and the same upload succeeds once there is room. Over one
// pipeline the previous state is still served in between; over several
// the shards that had room have already installed theirs (the limit
// shard.Restore documents).
func TestRestoreStoreFaultIsNotAClientError(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		if !d.durable {
			t.Skip("no disk to fill")
		}
		sc := faultfs.NewScript()
		ts := httptest.NewServer(New(d.open(t, t.TempDir(), durable.Options{Inject: sc}), Options{}))
		defer ts.Close()
		snaps := make([][]byte, 2)
		for i, n := range []int{5, 40} {
			var buf bytes.Buffer
			if err := persist.Write(influenzaStore(t, n), &buf); err != nil {
				t.Fatal(err)
			}
			snaps[i] = buf.Bytes()
		}
		if code, body := fetch(t, "POST", ts.URL+"/api/restore", snaps[0]); code != 200 {
			t.Fatalf("first restore: %d (%s)", code, body)
		}
		_, before := fetch(t, "GET", ts.URL+"/api/annotations", nil)

		sc.FailPath(faultfs.OpCreate, ".snap", 1,
			faultfs.Fault{Err: faultfs.Errno(faultfs.OpCreate, syscall.ENOSPC)})
		if code, body := fetch(t, "POST", ts.URL+"/api/restore", snaps[1]); code < 500 {
			t.Fatalf("restore onto a full disk: %d (%s), want 5xx", code, body)
		}
		if code, body := fetch(t, "GET", ts.URL+"/readyz", nil); code != 200 {
			t.Fatalf("/readyz after the failed restore: %d (%s)", code, body)
		}
		if _, after := fetch(t, "GET", ts.URL+"/api/annotations", nil); d.shards == 1 && !bytes.Equal(after, before) {
			t.Fatal("the failed restore changed the served state")
		}

		sc.Clear()
		if code, body := fetch(t, "POST", ts.URL+"/api/restore", snaps[1]); code != 200 {
			t.Fatalf("retry with room on the disk: %d (%s)", code, body)
		}
		if _, after := fetch(t, "GET", ts.URL+"/api/annotations", nil); bytes.Equal(after, before) {
			t.Fatal("the retried restore did not replace the served state")
		}
	})
}
