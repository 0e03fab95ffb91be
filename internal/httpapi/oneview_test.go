package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/prop"
)

// TestOneViewPerRequest: a read request pins one view set and answers
// from it alone. A writer loops create+delete of a protease annotation
// overlapping annotation A under an overlap rule, which is symmetric: in
// every view A derives as many facts as are derived onto it, and the
// store holds start + (epoch − startEpoch) % 2 annotations. A body
// assembled from two pins can break either equation.
func TestOneViewPerRequest(t *testing.T) {
	seed := core.NewStore()
	sq, err := seq.New("seq-1", seq.DNA, strings.Repeat("ACGT", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	m, err := seed.MarkDomainInterval("seq-1", span(100, 200))
	if err != nil {
		t.Fatal(err)
	}
	a, err := seed.Commit(seed.NewAnnotation().Creator("a").Date("2008-01-01").Body("protease site").Refer(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := prop.Attach(seed).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "seq-1"}); err != nil {
		t.Fatal(err)
	}

	deployments(t, func(t *testing.T, d deployment) {
		sh := d.serve(t, seed)
		h := New(sh, Options{})
		get := func(path string, out any) {
			t.Helper()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		type stats struct {
			Annotations uint64
			Epoch       uint64 `json:"epoch"`
		}
		var start stats
		get("/api/stats", &start)

		var stop atomic.Bool
		var cycles atomic.Int64
		var werr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m, err := sh.MarkDomainInterval("seq-1", span(150, 250))
				if err != nil {
					werr = err
					return
				}
				b, err := sh.Commit(sh.NewAnnotation().Creator("w").Date("2008-01-01").Body("protease site").Refer(m))
				if err == nil {
					err = sh.DeleteAnnotation(b.ID)
				}
				if err != nil {
					werr = err
					return
				}
				cycles.Add(1)
			}
		}()
		t.Cleanup(func() { stop.Store(true); wg.Wait() })

		const reads = 3000
		mixedProv, mixedStats, n := 0, 0, 0
		for ; n < reads || cycles.Load() < 2; n++ {
			var p struct{ Derives, Provenance []json.RawMessage }
			get(fmt.Sprintf("/api/provenance/%d", a.ID), &p)
			if len(p.Derives) != len(p.Provenance) {
				mixedProv++
			}
			var st stats
			get("/api/stats", &st)
			if st.Annotations != start.Annotations+(st.Epoch-start.Epoch)%2 {
				mixedStats++
			}
		}
		stop.Store(true)
		wg.Wait()
		if werr != nil {
			t.Fatalf("writer: %v", werr)
		}
		if mixedProv > 0 {
			t.Errorf("%d of %d /api/provenance bodies took derives and provenance from different views", mixedProv, n)
		}
		if mixedStats > 0 {
			t.Errorf("%d of %d /api/stats bodies counted annotations at another epoch than they named", mixedStats, n)
		}
	})
}
