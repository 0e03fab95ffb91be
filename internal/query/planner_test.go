package query

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
)

// plannerTestStore builds a join-heavy fixture: n interval annotations
// on one domain, of which the first `needles` carry the keyword
// "needle". Every annotation has one referent marking the sequence.
func plannerTestStore(t testing.TB, n, needles int) *core.Store {
	t.Helper()
	s := core.NewStore()
	sq, err := seq.New("NC_T", seq.DNA, strings.Repeat("ACGT", n*3+8))
	must(t, err)
	sq.Domain = "chrT"
	must(t, s.RegisterSequence(sq))
	for i := 0; i < n; i++ {
		m, err := s.MarkDomainInterval("chrT", interval.Interval{Lo: int64(i * 10), Hi: int64(i*10 + 5)})
		must(t, err)
		body := fmt.Sprintf("window %d", i)
		if i < needles {
			body = fmt.Sprintf("needle window %d", i)
		}
		_, err = s.Commit(s.NewAnnotation().
			Creator("planner").Date("2026-07-30").Body(body).Refer(m))
		must(t, err)
	}
	return s
}

const plannerJoinSrc = `
select contents
where {
  ?a isa annotation ; contains "needle" .
  ?r isa referent ; kind interval ; domain "chrT" .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?r marks ?o .
}`

// TestSemiJoinPrunesBindings is the acceptance gate for index-driven
// edge enumeration: on a join-heavy query the semi-join plan must try
// at least 5x fewer bindings than the candidate×candidate baseline
// while producing the identical match stream.
func TestSemiJoinPrunesBindings(t *testing.T) {
	s := plannerTestStore(t, 500, 8)
	p := NewProcessor(s)
	q := MustParse(plannerJoinSrc)

	auto, err := p.ExecuteParsedCtx(context.Background(), q, DefaultOptions)
	must(t, err)
	nested, err := runRef(s.View(), q, DefaultOptions, true, nil)
	must(t, err)

	if !reflect.DeepEqual(auto.Matches, nested.Matches) {
		t.Fatalf("semi-join changed the match stream:\n got %v\nwant %v", auto.Matches, nested.Matches)
	}
	if !reflect.DeepEqual(annIDs(auto.Annotations), annIDs(nested.Annotations)) {
		t.Fatalf("semi-join changed annotations: %v vs %v",
			annIDs(auto.Annotations), annIDs(nested.Annotations))
	}
	if len(auto.Annotations) != 8 {
		t.Fatalf("needle annotations = %d, want 8", len(auto.Annotations))
	}
	if auto.Stats.BindingsTried*5 > nested.Stats.BindingsTried {
		t.Fatalf("semi-join tried %d bindings, nested loop %d — want ≥5x reduction",
			auto.Stats.BindingsTried, nested.Stats.BindingsTried)
	}
}

// TestPlannerExplainSurface checks the Stats explain fields: every
// variable gets a cost estimate and a strategy, and the joined
// variables are bound by semi-join enumeration.
func TestPlannerExplainSurface(t *testing.T) {
	s := plannerTestStore(t, 200, 4)
	p := NewProcessor(s)
	res, err := p.Execute(plannerJoinSrc, DefaultOptions)
	must(t, err)
	for _, name := range []string{"a", "r", "o"} {
		if _, ok := res.Stats.Costs[name]; !ok {
			t.Fatalf("no cost estimate for ?%s: %v", name, res.Stats.Costs)
		}
		if res.Stats.Strategies[name] == "" {
			t.Fatalf("no strategy for ?%s: %v", name, res.Stats.Strategies)
		}
	}
	// The single dna_sequences object is the cheapest entry point.
	if res.Stats.Order[0] != "o" {
		t.Fatalf("cost planner should start from the 1-candidate object set, order = %v", res.Stats.Order)
	}
	if got := res.Stats.Strategies[res.Stats.Order[0]]; got != "scan" {
		t.Fatalf("first variable strategy = %q, want scan", got)
	}
	// ?r joins both bound variables; it must be bound by enumeration.
	if got := res.Stats.Strategies["r"]; !strings.HasPrefix(got, "semi-join(") {
		t.Fatalf("strategy for ?r = %q, want semi-join", got)
	}
	// The nested-loop reference reports scans everywhere.
	res, err = runRef(s.View(), MustParse(plannerJoinSrc), DefaultOptions, true, nil)
	must(t, err)
	for name, strat := range res.Stats.Strategies {
		if strat != "scan" {
			t.Fatalf("nested-loop strategy for ?%s = %q", name, strat)
		}
	}
}

// TestContainsPaddedKeyword is the regression test for the contains
// normalization mismatch: View.SearchKeyword trims and lower-cases the
// word, but the pre-fix re-check in annotationMatches only lower-cased,
// so the index's own hits were rejected and `contains " needle "`
// returned nothing.
func TestContainsPaddedKeyword(t *testing.T) {
	s := plannerTestStore(t, 50, 6)
	p := NewProcessor(s)
	clean, err := p.Execute(`select contents where { ?a isa annotation ; contains "needle" . }`, DefaultOptions)
	must(t, err)
	padded, err := p.Execute(`select contents where { ?a isa annotation ; contains " Needle " . }`, DefaultOptions)
	must(t, err)
	if len(clean.Annotations) != 6 {
		t.Fatalf("clean keyword matched %d, want 6", len(clean.Annotations))
	}
	if !reflect.DeepEqual(annIDs(clean.Annotations), annIDs(padded.Annotations)) {
		t.Fatalf("padded keyword diverged from clean: %v vs %v",
			annIDs(padded.Annotations), annIDs(clean.Annotations))
	}
	// Seeded-vs-scan parity: the index-seeded candidates must agree with
	// a scan of every document under the same normalization.
	var scan []*core.Annotation
	for _, ann := range s.View().Annotations() {
		if ann.HasToken(core.NormalizeKeyword(" Needle ")) {
			scan = append(scan, ann)
		}
	}
	if len(scan) != len(padded.Annotations) {
		t.Fatalf("index-seeded query found %d, document scan %d", len(padded.Annotations), len(scan))
	}
}

// stingyCtx is a context whose Err starts failing after a fixed number
// of polls — it makes the cancellation-check schedule observable: a
// path that never polls Err never sees the cancellation.
type stingyCtx struct {
	context.Context
	polls int32
	after int32
}

func (c *stingyCtx) Err() error {
	if atomic.AddInt32(&c.polls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestReferentScanHonorsCancellation is the regression test for the
// missing cancellation strides: pre-fix, a referent-heavy candidate
// scan polled the context only once on entry, so a timeout could not
// fire until the join phase. `limit 1` keeps the join from polling, so
// the scan itself must notice.
func TestReferentScanHonorsCancellation(t *testing.T) {
	s := plannerTestStore(t, 700, 2)
	p := NewProcessor(s)
	// Allow the entry poll plus one stride, then cancel: only the
	// in-scan stride checks can observe it.
	ctx := &stingyCtx{Context: context.Background(), after: 2}
	_, err := p.ExecuteCtx(ctx, `
select referents
where {
  ?r isa referent ; kind interval .
}
limit 1`, DefaultOptions)
	if err != context.Canceled {
		t.Fatalf("referent-heavy scan ignored cancellation: err = %v", err)
	}
}

// TestSemiJoinFilterHonorsCancellation is the twin for a lazy referent
// domain's other scan: the semi-join filter walks the bound endpoint's
// edges, and a hot endpoint — here the one sequence all 700 referents
// mark — makes that walk as long as a candidate scan. Phase 1 polls six
// times (?o: entry and one stride; ?r: entry and the counting scan's
// three strides), `limit 1` keeps the join itself from polling, so the
// seventh poll can only come from inside the filter.
func TestSemiJoinFilterHonorsCancellation(t *testing.T) {
	s := plannerTestStore(t, 700, 2)
	p := NewProcessor(s)
	const src = `
select referents
where {
  ?o isa object ; type dna_sequences .
  ?r isa referent ; kind interval .
  ?r marks ?o .
}
limit 1`
	res, err := p.Execute(src, DefaultOptions)
	must(t, err)
	if got := res.Stats.Strategies["r"]; !strings.HasPrefix(got, "semi-join(") || res.Stats.LazyDomains != 1 {
		t.Fatalf("fixture no longer filters a lazy ?r by semi-join: strategy %q, %d lazy domains",
			got, res.Stats.LazyDomains)
	}
	ctx := &stingyCtx{Context: context.Background(), after: 6}
	if _, err := p.ExecuteCtx(ctx, src, DefaultOptions); err != context.Canceled {
		t.Fatalf("semi-join filter over a 700-edge endpoint ignored cancellation: err = %v", err)
	}
}

// TestObjectAndTermScansHonorCancellation covers the other two unseeded
// scans the fix added strides to.
func TestObjectAndTermScansHonorCancellation(t *testing.T) {
	s := newQueryStore(t)
	for _, src := range []string{
		`select graph where { ?o isa object . } limit 1`,
		`select graph where { ?t isa term . } limit 1`,
	} {
		p := NewProcessor(s)
		ctx := &stingyCtx{Context: context.Background(), after: 1}
		if _, err := p.ExecuteCtx(ctx, src, DefaultOptions); err != context.Canceled {
			t.Fatalf("%q ignored cancellation: err = %v", src, err)
		}
	}
}
