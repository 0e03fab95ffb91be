package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"graphitti/internal/agraph"
	"graphitti/internal/interval"
)

// graphReads is every graph-backed answer a view gives about annotations
// a, b and z of the pinned-view scenario, in comparable form.
type graphReads struct {
	Related, OfReferent, OnObject, WithTerm []uint64
	Correlated                              []CorrelatedItem
	PathAB, PathAZ                          string
	Connect                                 string
	Stats                                   Stats
}

func annIDs(anns []*Annotation) []uint64 {
	ids := make([]uint64, len(anns))
	for i, ann := range anns {
		ids[i] = ann.ID
	}
	return ids
}

func readGraph(t testing.TB, v *View, a, b, z *Annotation) graphReads {
	t.Helper()
	related, err := v.RelatedAnnotations(a.ID)
	mustNoErr(t, err)
	correlated, err := v.CorrelatedData(a.ID)
	mustNoErr(t, err)
	path := func(from, to uint64) string {
		p, err := v.PathBetweenAnnotations(from, to)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(p.Nodes, p.Edges)
	}
	sg, err := v.ConnectAnnotations(a.ID, b.ID)
	mustNoErr(t, err)
	return graphReads{
		Related:    annIDs(related),
		OfReferent: annIDs(v.AnnotationsOfReferent(slices.Collect(a.ReferentIDs)[0])),
		OnObject:   annIDs(v.AnnotationsOnObject(TypeDNA, "NC_007362")),
		WithTerm:   annIDs(v.AnnotationsWithTerm("go", "protease")),
		Correlated: correlated,
		PathAB:     path(a.ID, b.ID),
		PathAZ:     path(a.ID, z.ID),
		Connect:    sg.DOT("ab"),
		Stats:      v.Stats(),
	}
}

// TestPinnedViewGraphReads: a pinned view's graph-backed reads answer from
// its own epoch. Annotations a and b share a referent, z is unrelated; with
// a view pinned, b is deleted and c commits on both a's and z's referents.
// The pinned view must go on relating a to b, finding b on a's referent,
// object and term, walking the same path from a to b and none from a to z
// (there is one now, through c, which the view does not hold), and counting
// the same nodes and edges — after the ops, and while a Batch that carries
// them is still open.
func TestPinnedViewGraphReads(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			s := newDemoStore(t)
			note := func(seqID string, title string) *Builder {
				m, err := s.View().MarkSequenceInterval(seqID, interval.Interval{Lo: 10, Hi: 20})
				mustNoErr(t, err)
				return s.NewAnnotation().Creator("u").Date("2008-01-01").Title(title).Refer(m)
			}
			a, err := s.Commit(note("NC_007362", "a").OntologyRef("go", "protease"))
			mustNoErr(t, err)
			b, err := s.Commit(note("NC_007362", "b").OntologyRef("go", "protease"))
			mustNoErr(t, err)
			z, err := s.Commit(note("P03452", "z").OntologyRef("nif", "cerebellum"))
			mustNoErr(t, err)
			if slices.Collect(a.ReferentIDs)[0] != slices.Collect(b.ReferentIDs)[0] || slices.Collect(a.ReferentIDs)[0] == slices.Collect(z.ReferentIDs)[0] {
				t.Fatalf("fixture: referents a %v, b %v, z %v",
					slices.Collect(a.ReferentIDs), slices.Collect(b.ReferentIDs), slices.Collect(z.ReferentIDs))
			}

			v := s.View()
			before := readGraph(t, v, a, b, z)
			if !slices.Equal(before.Related, []uint64{b.ID}) || before.PathAZ != fmt.Sprintf("%v: %v to %v",
				agraph.ErrNoPath, agraph.ContentRoot(a.ID), agraph.ContentRoot(z.ID)) {
				t.Fatalf("fixture: related %v, path a–z %q", before.Related, before.PathAZ)
			}
			check := func(when string) {
				t.Helper()
				if got := readGraph(t, v, a, b, z); !reflect.DeepEqual(got, before) {
					t.Fatalf("%s, the pinned view answers\n%+v\nbefore them it answered\n%+v", when, got, before)
				}
			}

			var c *Annotation
			later := func(del func(uint64) error, commit func(*Builder) (*Annotation, error)) error {
				if err := del(b.ID); err != nil {
					return err
				}
				zm, err := s.View().MarkSequenceInterval("P03452", interval.Interval{Lo: 10, Hi: 20})
				mustNoErr(t, err)
				c, err = commit(note("NC_007362", "c").Refer(zm).OntologyRef("go", "protease"))
				return err
			}
			if batched {
				mustNoErr(t, s.Batch(func(tx *Tx) error {
					defer check("with the delete and the commit applied in an open batch")
					return later(tx.DeleteAnnotation, tx.Commit)
				}))
			} else {
				mustNoErr(t, later(s.DeleteAnnotation, s.Commit))
			}
			check("after the delete and the commit")

			// The current view holds what the ops made of the graph.
			now := readGraph(t, s.View(), a, c, z)
			if !slices.Equal(now.Related, []uint64{c.ID}) || now.PathAZ == before.PathAZ ||
				now.Stats.GraphEdges != before.Stats.GraphEdges+1 || now.Stats.GraphNodes != before.Stats.GraphNodes {
				t.Fatalf("current view: related %v, path a–z %q, stats %+v", now.Related, now.PathAZ, now.Stats)
			}
		})
	}
}

// TestQuickGraphReadsVsScan: on random op streams, the graph-backed reads
// of the current view and of views pinned along the way equal what a scan
// of that view's own annotations and referents gives.
func TestQuickGraphReadsVsScan(t *testing.T) {
	seqs := []string{"NC_007362", "NC_007363", "P03452"}
	terms := []string{"enzyme", "hydrolase", "protease"}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newDemoStore(t)
		var pinned []*View
		var live []uint64
		for op := 0; op < 60; op++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(live))
				mustNoErr(t, s.DeleteAnnotation(live[k]))
				live = slices.Delete(live, k, k+1)
			} else {
				b := s.NewAnnotation().Creator("u").Date("2008-01-01")
				for n := 1 + rng.Intn(2); n > 0; n-- {
					lo := int64(n*60 + rng.Intn(6)*10) // few distinct marks: referents get shared, never within one annotation
					m, err := s.View().MarkSequenceInterval(seqs[rng.Intn(len(seqs))], interval.Interval{Lo: lo, Hi: lo + 10})
					mustNoErr(t, err)
					b.Refer(m)
				}
				if rng.Intn(2) == 0 {
					b.OntologyRef("go", terms[rng.Intn(len(terms))])
				}
				ann, err := s.Commit(b)
				mustNoErr(t, err)
				live = append(live, ann.ID)
			}
			if op%7 == 0 {
				pinned = append(pinned, s.View())
			}
		}
		for _, v := range append(pinned, s.View()) {
			if msg := graphReadsVsScan(v, seqs, terms); msg != "" {
				t.Logf("seed %d, epoch %d: %s", seed, v.Epoch(), msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// graphReadsVsScan recomputes v's graph-backed reads from Annotations()
// and ReferentsEach and describes the first difference, if any.
func graphReadsVsScan(v *View, seqs, terms []string) string {
	anns := v.Annotations()
	marks := func(ann *Annotation, typ ObjectType, object string) bool {
		return slices.ContainsFunc(slices.Collect(ann.ReferentIDs), func(id uint64) bool {
			r, _ := v.Referent(id)
			return r != nil && r.ObjectType == typ && r.ObjectID == object
		})
	}
	scan := func(keep func(*Annotation) bool) []uint64 {
		var ids []uint64
		for _, ann := range anns {
			if keep(ann) {
				ids = append(ids, ann.ID)
			}
		}
		return ids
	}
	edges := 0
	usedTerms := map[TermRef]bool{}
	for _, ann := range anns {
		edges += ann.NumReferents() + ann.NumTerms()
		for tr := range ann.Terms {
			usedTerms[tr] = true
		}
	}
	var diff string
	v.ReferentsEach(func(r *Referent) bool {
		edges++ // its marks edge
		want := scan(func(ann *Annotation) bool { return slices.Contains(slices.Collect(ann.ReferentIDs), r.ID) })
		if got := annIDs(v.AnnotationsOfReferent(r.ID)); !slices.Equal(got, want) {
			diff = fmt.Sprintf("AnnotationsOfReferent(%d) = %v, scan %v", r.ID, got, want)
		}
		return diff == ""
	})
	if diff != "" {
		return diff
	}
	for _, id := range seqs {
		_, typ, _ := v.Sequence(id)
		want := scan(func(ann *Annotation) bool { return marks(ann, typ, id) })
		if got := annIDs(v.AnnotationsOnObject(typ, id)); !slices.Equal(got, want) {
			return fmt.Sprintf("AnnotationsOnObject(%s) = %v, scan %v", id, got, want)
		}
	}
	for _, term := range terms {
		want := scan(func(ann *Annotation) bool { return slices.Contains(slices.Collect(ann.Terms), TermRef{"go", term}) })
		if got := annIDs(v.AnnotationsWithTerm("go", term)); !slices.Equal(got, want) {
			return fmt.Sprintf("AnnotationsWithTerm(%s) = %v, scan %v", term, got, want)
		}
	}
	for _, ann := range anns {
		want := scan(func(other *Annotation) bool {
			return other.ID != ann.ID && slices.ContainsFunc(slices.Collect(ann.ReferentIDs), func(id uint64) bool {
				r, _ := v.Referent(id)
				return marks(other, r.ObjectType, r.ObjectID)
			})
		})
		related, err := v.RelatedAnnotations(ann.ID)
		if got := annIDs(related); err != nil || !slices.Equal(got, want) {
			return fmt.Sprintf("RelatedAnnotations(%d) = %v, %v; scan %v", ann.ID, got, err, want)
		}
	}
	// A term's node appears with its first reference and stays.
	st := v.Stats()
	objects := st.Sequences + st.Alignments + st.Trees + st.InteractionGraphs + st.Images
	if st.GraphEdges != edges || st.GraphNodes < len(anns)+st.Referents+objects+len(usedTerms) ||
		st.GraphNodes > len(anns)+st.Referents+objects+len(terms) {
		return fmt.Sprintf("stats %+v; scan counts %d edges over %d annotations, %d referents, %d objects, %d terms",
			st, edges, len(anns), st.Referents, objects, len(usedTerms))
	}
	return ""
}
