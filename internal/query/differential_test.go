package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
	"graphitti/internal/rtree"
)

// TestDifferentialPlannerEquivalence is the planner's correctness
// oracle: random stores × random queries, executed four ways — the
// cost-based planner with semi-join enumeration, the same order with
// the candidate×candidate nested loop, declaration order (ablation A5),
// and the retired greedy connected-smallest order — must produce
// identical matches, annotations and referents. The nested loop scans
// every domain as a slice and probes edges one by one, so it is also the
// materialised reference for the lazy referent domains the other three
// count, filter against and build on demand. Runs under -race in CI
// (the candidate sub-queries fan out across goroutines).
func TestDifferentialPlannerEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := randomDiffStore(t, rng)
			queries := 40
			if testing.Short() {
				queries = 12
			}
			for qi := 0; qi < queries; qi++ {
				checkFourWays(t, s, randomDiffQuery(rng).src)
			}
			for _, src := range lazyRoleQueries {
				checkFourWays(t, s, src)
			}
		})
	}
}

// checkFourWays runs src the four ways and compares them.
func checkFourWays(t *testing.T, s *core.Store, src string) {
	t.Helper()
	p := NewProcessor(s)
	parsed, err := Parse(src)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, src)
	}

	// The cap bounds runtime on unconstrained cross products. A query
	// that hits it was truncated mid-exploration — different orders would
	// truncate different subsets — so such queries are skipped below; for
	// everything under the cap the exploration is exhaustive and the cap
	// is invisible.
	const matchCap = 3000
	auto, err := p.ExecuteParsed(parsed, Options{OrderBySelectivity: true, MaxResults: matchCap})
	must(t, err)
	if auto.Stats.Matches >= matchCap || auto.Stats.BindingsTried > 100_000 {
		return
	}
	nested, err := p.ExecuteParsed(parsed, Options{OrderBySelectivity: true, Join: JoinNestedLoop, MaxResults: matchCap})
	must(t, err)
	decl, err := p.ExecuteParsed(parsed, Options{OrderBySelectivity: false, MaxResults: matchCap})
	must(t, err)
	// Replay the retired greedy connected-smallest order (sizes are all
	// it consulted).
	fakeDomains := make(map[string]*domain, len(auto.Stats.CandidateCounts))
	for name, n := range auto.Stats.CandidateCounts {
		fakeDomains[name] = &domain{size: n, listed: true}
	}
	run := &execution{view: s.View(), ctx: context.Background()}
	greedy, err := run.executeOrdered(parsed, Options{OrderBySelectivity: true, MaxResults: matchCap}, planOrderGreedy(parsed, fakeDomains))
	must(t, err)

	// Same order ⇒ the match stream itself must be identical.
	if !reflect.DeepEqual(auto.Matches, nested.Matches) {
		t.Fatalf("semi-join diverged from nested loop on:\n%s\n got %v\nwant %v",
			src, auto.Matches, nested.Matches)
	}
	// Different orders ⇒ the match set must be identical.
	want := canonicalMatches(auto.Matches)
	for name, res := range map[string]*Result{
		"nested-loop": nested, "declaration-order": decl, "greedy-order": greedy,
	} {
		if !reflect.DeepEqual(res.Stats.CandidateCounts, auto.Stats.CandidateCounts) {
			t.Fatalf("%s candidate counts diverged on:\n%s\n got %v\nwant %v",
				name, src, res.Stats.CandidateCounts, auto.Stats.CandidateCounts)
		}
		if got := canonicalMatches(res.Matches); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged from cost planner on:\n%s\n got %v\nwant %v",
				name, src, got, want)
		}
		if !reflect.DeepEqual(annIDs(res.Annotations), annIDs(auto.Annotations)) {
			t.Fatalf("%s annotations diverged on:\n%s\n got %v\nwant %v",
				name, src, annIDs(res.Annotations), annIDs(auto.Annotations))
		}
		if !reflect.DeepEqual(refIDs(res.Referents), refIDs(auto.Referents)) {
			t.Fatalf("%s referents diverged on:\n%s\n got %v\nwant %v",
				name, src, refIDs(res.Referents), refIDs(auto.Referents))
		}
	}
}

// lazyRoleQueries put a predicate-only referent variable — one each of
// kind, domain, object and an unseeded overlaps, and combinations — in a
// join with a selective annotation variable before it and an object
// variable after it, so that across the four executions it is scanned
// first, bound by a semi-join, and sampled as the bound endpoint of the
// next semi-join. TestLazyDomainRoles pins each role; here they ride the
// four-way comparison on every random store.
var lazyRoleQueries = func() []string {
	var out []string
	for _, props := range []string{
		`kind interval`,
		`kind region`,
		`domain "chrA"`,
		`object "NC_chrB"`,
		`overlaps [200, 700)`,
		`kind interval ; domain "chrB" ; object "NC_chrB"`,
		`kind interval ; overlaps [0, 400)`,
		`kind block`,
	} {
		for _, sel := range []string{"contents", "referents"} {
			out = append(out, fmt.Sprintf(`select %s
where {
  ?a isa annotation ; contains "alpha" .
  ?r isa referent ; %s .
  ?o isa object .
  ?a annotates ?r .
  ?r marks ?o .
}`, sel, props))
		}
	}
	return out
}()

// TestLazyDomainRoles forces the binding orders that put a lazy referent
// domain in each of its three roles and checks, against the nested loop
// under the same order, that the match stream is identical — and that the
// domain was in fact listed or left as a predicate as the role says.
func TestLazyDomainRoles(t *testing.T) {
	s := randomDiffStore(t, rand.New(rand.NewSource(11)))
	for _, src := range lazyRoleQueries {
		parsed := MustParse(src)
		for _, role := range []struct {
			name     string
			order    []string
			semiJoin bool // ?r is bound by a semi-join
			lazy     int  // domains never built
		}{
			// ?r is the first scan: listed by the scan, then sampled for
			// ?a out of the list.
			{"scanned first", []string{"r", "a", "o"}, false, 0},
			// ?r is filtered against ?a's edges; ?o scans, so nothing
			// samples ?r.
			{"bound by semi-join", []string{"o", "a", "r"}, true, 1},
			// ?r is filtered against ?a's edges, and the planner samples
			// it to estimate ?o's fan-out from it — out of a pass over the
			// referents, still without listing it.
			{"sampled as bound endpoint", []string{"a", "r", "o"}, true, 1},
		} {
			run := &execution{view: s.View(), ctx: context.Background()}
			got, err := run.executeOrdered(parsed, Options{OrderBySelectivity: true}, role.order)
			must(t, err)
			run = &execution{view: s.View(), ctx: context.Background()}
			want, err := run.executeOrdered(parsed, Options{OrderBySelectivity: true, Join: JoinNestedLoop}, role.order)
			must(t, err)
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Fatalf("%s: match stream diverged from the nested loop on:\n%s\n got %v\nwant %v",
					role.name, src, got.Matches, want.Matches)
			}
			if !reflect.DeepEqual(got.Stats.CandidateCounts, want.Stats.CandidateCounts) {
				t.Fatalf("%s: counted %v, listed %v on:\n%s", role.name,
					got.Stats.CandidateCounts, want.Stats.CandidateCounts, src)
			}
			if got.Stats.CandidateCounts["r"] == 0 {
				continue // an empty domain is never scanned, sampled or filtered against
			}
			if semi := strings.HasPrefix(got.Stats.Strategies["r"], "semi-join("); semi != role.semiJoin {
				t.Fatalf("%s: strategy for ?r = %q on:\n%s", role.name, got.Stats.Strategies["r"], src)
			}
			if got.Stats.LazyDomains != role.lazy {
				t.Fatalf("%s: %d domains never built, want %d, on:\n%s",
					role.name, got.Stats.LazyDomains, role.lazy, src)
			}
		}
	}
}

// TestFanSampleListedOrNot: the planner's fan-out sample of a lazy domain
// is the same nodes whether it is drawn from a pass over the referents or
// out of the list a scan built — so the plan does not depend on which
// happened first — for domains smaller and larger than the sample.
func TestFanSampleListedOrNot(t *testing.T) {
	s := randomDiffStore(t, rand.New(rand.NewSource(5)))
	for _, src := range []string{
		`select referents where { ?r isa referent . }`,
		`select referents where { ?r isa referent ; kind region . }`,
		`select referents where { ?r isa referent ; domain "chrA" ; kind interval . }`,
		`select referents where { ?r isa referent ; overlaps [0, 150) . }`,
		`select referents where { ?r isa referent ; kind clade . }`,
	} {
		v := &MustParse(src).Vars[0]
		e := &execution{view: s.View(), ctx: context.Background()}
		unlisted, err := e.candidates(v)
		must(t, err)
		listed, err := e.candidates(v)
		must(t, err)
		if unlisted.listed || listed.listed {
			t.Fatalf("not a lazy domain: %s", src)
		}
		nodes, err := e.nodes(listed)
		must(t, err)
		if len(nodes) != listed.size || !listed.listed || unlisted.listed {
			t.Fatalf("listed %d of %d members: %s", len(nodes), listed.size, src)
		}
		want, err := e.fanSample(listed)
		must(t, err)
		got, err := e.fanSample(unlisted)
		must(t, err)
		if len(got) != min(listed.size, fanSampleSize) || !reflect.DeepEqual(got, want) {
			t.Fatalf("sample of the unlisted domain differs on %s:\n got %v\nwant %v", src, got, want)
		}
	}
}

func refIDs(refs []*core.Referent) []uint64 {
	out := make([]uint64, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}

// canonicalMatches serialises a match list into a sorted, order-free
// form (a match is a set of bindings; emission order is an execution
// detail of the variable order).
func canonicalMatches(ms []Match) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s;", k, m[k].String())
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// randomDiffStore builds a small heterogeneous store: two interval
// domains, an image system, an ontology, and ~60 annotations with
// random marks, keywords, creators and term references — plus an
// overlap rule so derived/provenance predicates have facts to match.
func randomDiffStore(t *testing.T, rng *rand.Rand) *core.Store {
	t.Helper()
	s := core.NewStore()

	o := ontology.New("go")
	terms := []string{"enzyme", "hydrolase", "protease", "kinase"}
	for _, id := range terms {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	must(t, o.AddEdge("hydrolase", "enzyme", ontology.IsA, ontology.Some))
	must(t, o.AddEdge("protease", "hydrolase", ontology.IsA, ontology.Some))
	must(t, o.AddEdge("kinase", "enzyme", ontology.IsA, ontology.Some))
	must(t, s.RegisterOntology(o))

	for _, dom := range []string{"chrA", "chrB"} {
		sq, err := seq.New("NC_"+dom, seq.DNA, strings.Repeat("ACGT", 300))
		must(t, err)
		sq.Domain = dom
		must(t, s.RegisterSequence(sq))
	}
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 1000, 1000))
	must(t, err)
	must(t, s.RegisterCoordinateSystem(cs))
	for _, id := range []string{"img-1", "img-2"} {
		im, err := imaging.NewImage(id, "atlas", rtree.Rect2D(0, 0, 500, 500), imaging.Identity(2))
		must(t, err)
		must(t, s.RegisterImage(im))
	}

	must(t, prop.Attach(s).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "chrA"}))

	vocab := []string{"alpha", "beta", "gamma", "delta", "hotspot"}
	creators := []string{"gupta", "condit", "martone"}
	for i := 0; i < 60; i++ {
		var m *core.Referent
		var err error
		switch rng.Intn(3) {
		case 0:
			lo := rng.Int63n(1100)
			m, err = s.MarkDomainInterval("chrA", interval.Interval{Lo: lo, Hi: lo + 10 + rng.Int63n(60)})
		case 1:
			lo := rng.Int63n(1100)
			m, err = s.MarkDomainInterval("chrB", interval.Interval{Lo: lo, Hi: lo + 10 + rng.Int63n(60)})
		default:
			x, y := rng.Float64()*400, rng.Float64()*400
			m, err = s.MarkImageRegion([]string{"img-1", "img-2"}[rng.Intn(2)], rtree.Rect2D(x, y, x+30, y+30))
		}
		must(t, err)
		b := s.NewAnnotation().
			Creator(creators[rng.Intn(len(creators))]).
			Date("2026-07-30").
			Body(vocab[rng.Intn(len(vocab))] + " site " + vocab[rng.Intn(len(vocab))]).
			Refer(m)
		if rng.Intn(3) == 0 {
			b.OntologyRef("go", terms[rng.Intn(len(terms))])
		}
		_, err = s.Commit(b)
		must(t, err)
	}
	return s
}

type diffQuery struct{ src string }

// randomDiffQuery emits a random-but-valid query over the differential
// store's schema: 1–3 variables with class-appropriate properties,
// edges wired wherever classes permit, and (sometimes) constraints over
// referent pairs. No limit clause — caps would make results depend on
// the binding order under comparison.
func randomDiffQuery(rng *rand.Rand) diffQuery {
	// graph selects build a connection subgraph per match; keep them in
	// the mix but rare so high-match queries don't dominate runtime.
	kinds := []string{"contents", "referents", "contents", "referents", "graph"}
	classes := []string{"annotation", "referent", "object", "term"}
	vocab := []string{"alpha", "beta", "gamma", "delta", "hotspot", "missing"}

	nvars := 1 + rng.Intn(3)
	var decls []string
	var names, varClass []string
	for i := 0; i < nvars; i++ {
		name := fmt.Sprintf("v%d", i)
		class := classes[rng.Intn(len(classes))]
		names, varClass = append(names, name), append(varClass, class)
		props := ""
		switch class {
		case "annotation":
			switch rng.Intn(4) {
			case 0:
				props = fmt.Sprintf(` ; contains "%s"`, vocab[rng.Intn(len(vocab))])
			case 1:
				props = ` ; creator "gupta"`
			case 2:
				props = ` ; derived "ov"`
			}
		case "referent":
			switch rng.Intn(8) {
			case 0:
				props = fmt.Sprintf(` ; kind %s`, []string{"interval", "region"}[rng.Intn(2)])
			case 1:
				props = fmt.Sprintf(` ; domain "%s"`, []string{"chrA", "chrB", "atlas"}[rng.Intn(3)])
			case 2:
				lo := rng.Intn(900)
				props = fmt.Sprintf(` ; overlaps [%d, %d)`, lo, lo+100+rng.Intn(200))
			case 3:
				props = ` ; provenance`
			case 4:
				props = fmt.Sprintf(` ; object "%s"`, []string{"NC_chrA", "NC_chrB", "img-1"}[rng.Intn(3)])
			case 5:
				// Domain and overlaps together seed from the interval
				// index: a listed domain beside the lazy ones.
				lo := rng.Intn(900)
				props = fmt.Sprintf(` ; domain "chrA" ; overlaps [%d, %d)`, lo, lo+100+rng.Intn(200))
			case 6:
				props = fmt.Sprintf(` ; kind interval ; object "%s" ; provenance`, []string{"NC_chrA", "NC_chrB"}[rng.Intn(2)])
			}
		case "object":
			if rng.Intn(2) == 0 {
				props = ` ; type dna_sequences`
			}
		case "term":
			switch rng.Intn(3) {
			case 0:
				props = ` ; ontology "go" ; under "enzyme"`
			case 1:
				props = ` ; ontology "go" ; term "protease"`
			}
		}
		decls = append(decls, fmt.Sprintf("  ?%s isa %s%s .", name, class, props))
	}

	var edges []string
	for i := 0; i < nvars; i++ {
		for j := 0; j < nvars; j++ {
			if i == j || rng.Intn(2) == 0 {
				continue
			}
			switch {
			case varClass[i] == "annotation" && varClass[j] == "referent":
				edges = append(edges, fmt.Sprintf("  ?%s annotates ?%s .", names[i], names[j]))
			case varClass[i] == "referent" && varClass[j] == "object":
				edges = append(edges, fmt.Sprintf("  ?%s marks ?%s .", names[i], names[j]))
			case varClass[i] == "annotation" && varClass[j] == "term":
				edges = append(edges, fmt.Sprintf("  ?%s refersTo ?%s .", names[i], names[j]))
			}
		}
	}

	constraint := ""
	var refVars []string
	for i, c := range varClass {
		if c == "referent" {
			refVars = append(refVars, names[i])
		}
	}
	if len(refVars) >= 2 && rng.Intn(2) == 0 {
		kind := []string{"disjoint", "overlapping", "samedomain", "distinct"}[rng.Intn(4)]
		constraint = fmt.Sprintf("constrain %s(?%s, ?%s)", kind, refVars[0], refVars[1])
	}

	src := fmt.Sprintf("select %s\nwhere {\n%s\n%s\n}\n%s",
		kinds[rng.Intn(len(kinds))],
		strings.Join(decls, "\n"), strings.Join(edges, "\n"), constraint)
	return diffQuery{src: src}
}
