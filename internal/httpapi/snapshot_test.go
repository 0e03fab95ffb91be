package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphitti/internal/persist"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// discardResponse is a ResponseWriter that keeps nothing of the body, so
// what a request allocates is the handler's alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// snapshotRouteAllocs is the allocations of one GET /api/snapshot
// answered by h.
func snapshotRouteAllocs(t *testing.T, h http.Handler) float64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/api/snapshot", nil)
	w := &discardResponse{h: http.Header{}}
	return testing.AllocsPerRun(3, func() { h.ServeHTTP(w, req) })
}

// snapshotAllocsPerShard is how many allocations each shard past the
// first may add to the route, whatever the size of the store: its view's
// registry listings and the walk of its annotations pulled in step with
// the others'. Measured: 24.
const snapshotAllocsPerShard = 32

// TestSnapshotRouteAllocations: what GET /api/snapshot allocates is a count
// that does not grow with the store — the same for a thousand
// benchmark-shaped annotations as for ten thousand, on one shard and on
// three — and three shards take at most snapshotAllocsPerShard more for
// each shard past the first.
// The route streams the checkpoint from the request's views and builds no
// dump of the store.
func TestSnapshotRouteAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds stores of 10k annotations")
	}
	counts := map[int][2]float64{}
	for _, n := range []int{1000, 10000} {
		s, err := workload.BenchmarkShaped(n)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := persist.Export(s)
		if err != nil {
			t.Fatal(err)
		}
		three := shard.New(3)
		if err := three.Restore(snap); err != nil {
			t.Fatal(err)
		}
		one := snapshotRouteAllocs(t, New(memorySet(s), Options{TraceRingSize: 1}))
		c := [2]float64{one, snapshotRouteAllocs(t, New(three, Options{TraceRingSize: 1}))}
		t.Logf("GET /api/snapshot of %d annotations: %.0f allocations on one shard, %.0f on three", n, c[0], c[1])
		counts[n] = c
	}
	if counts[1000] != counts[10000] {
		t.Errorf("allocations at 1k annotations %v, at 10k %v (one shard, three): want the same", counts[1000], counts[10000])
	}
	for n, c := range counts {
		if c[1] > c[0]+2*snapshotAllocsPerShard {
			t.Errorf("%d annotations: %.0f allocations on three shards, over one shard's %.0f + 2×%d", n, c[1], c[0], snapshotAllocsPerShard)
		}
	}
}

// cutOffsets are the lengths the cut-snapshot test cuts a body of n bytes
// to: nothing, every length inside the magic and the format byte, 32
// lengths across the deflated body, and every length that ends inside the
// checksum trailer.
func cutOffsets(n int) []int {
	var cuts []int
	for i := 0; i <= len("GSNAP")+1; i++ {
		cuts = append(cuts, i)
	}
	for i := 1; i < 32; i++ {
		cuts = append(cuts, 6+i*(n-10)/32)
	}
	for i := n - 4; i < n; i++ {
		cuts = append(cuts, i)
	}
	return cuts
}

// TestCutSnapshotRefused: a snapshot cut short anywhere — in the header,
// the deflated body or the checksum trailer, as an aborted GET leaves it —
// is refused by POST /api/restore with a 400, and GET /api/snapshot still
// serves what it did, byte for byte, on every deployment.
func TestCutSnapshotRefused(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts := d.start(t, influenzaStore(t, 30), Options{})
		code, snap := fetch(t, "GET", ts.URL+"/api/snapshot", nil)
		if code != http.StatusOK {
			t.Fatalf("snapshot: %d (%s)", code, snap)
		}
		for _, n := range cutOffsets(len(snap)) {
			if code, resp := fetch(t, "POST", ts.URL+"/api/restore", snap[:n]); code != http.StatusBadRequest {
				t.Fatalf("restore of the snapshot's first %d of %d bytes: %d (%s), want 400", n, len(snap), code, resp)
			}
		}
		if _, after := fetch(t, "GET", ts.URL+"/api/snapshot", nil); !bytes.Equal(after, snap) {
			t.Fatal("a refused restore changed the snapshot")
		}
	})
}

// TestSnapshotRouteWriteFailure: a checkpoint whose write fails after the
// body began aborts the response, since the 200 is already sent, and the
// request is still counted once on its route.
func TestSnapshotRouteWriteFailure(t *testing.T) {
	h := New(memorySet(influenzaStore(t, 30)), Options{})
	w := &failingResponse{discardResponse: discardResponse{h: http.Header{}}, after: 1}
	before, _ := routeMetricSnapshot(t)
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("a write failing mid-body: recovered %v, want http.ErrAbortHandler", p)
		}
		if after, _ := routeMetricSnapshot(t); after["GET /api/snapshot"] != before["GET /api/snapshot"]+1 {
			t.Errorf("the aborted request moved its route's counter %v -> %v, want one on",
				before["GET /api/snapshot"], after["GET /api/snapshot"])
		}
	}()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/snapshot", nil))
	t.Fatal("a write failing mid-body did not abort the handler")
}

// failingResponse accepts after writes, then fails every one; sizes is
// the length of every write tried.
type failingResponse struct {
	discardResponse
	after int
	sizes []int
}

func (f *failingResponse) Write(p []byte) (int, error) {
	f.sizes = append(f.sizes, len(p))
	if f.after == 0 {
		return 0, http.ErrHandlerTimeout
	}
	f.after--
	return len(p), nil
}
