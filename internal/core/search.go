package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/trace"

	"graphitti/internal/xquery"
)

// searchParallelThreshold is the collection size below which SearchContents
// stays serial: fan-out overhead beats the scan for tiny collections.
const searchParallelThreshold = 64

// cancelCheckStride bounds how many documents a search worker evaluates
// between context checks.
const cancelCheckStride = 64

// SearchContents evaluates a path-expression query against every
// annotation content document and returns the annotations for which the
// result is truthy (a non-empty node set, true boolean, non-empty string
// or non-zero number). This is the paper's "collection-searching
// operations … performed using standard XQuery".
func (v *View) SearchContents(expr string) ([]*Annotation, error) {
	return v.SearchContentsCtx(context.Background(), expr)
}

// SearchContentsCtx is SearchContents with cancellation. The scan fans
// out across GOMAXPROCS workers over contiguous ID ranges and merges the
// per-range results in range order, so the output is byte-identical to a
// serial scan. The first evaluation error (or a context cancellation)
// stops all workers.
func (v *View) SearchContentsCtx(ctx context.Context, expr string) ([]*Annotation, error) {
	start := time.Now()
	if v.m != nil { // zero-value views have no bound metric set
		defer func() { v.m.searchSeconds.Observe(time.Since(start).Seconds()) }()
	}
	sp := trace.FromContext(ctx).StartChild("search")
	defer sp.Finish()
	q, err := xquery.Compile(expr)
	if err != nil {
		return nil, err
	}
	anns := v.Annotations() // ascending ID order
	workers := runtime.GOMAXPROCS(0)
	if workers > len(anns)/(searchParallelThreshold/2) {
		workers = len(anns) / (searchParallelThreshold / 2)
	}
	if workers <= 1 {
		return searchChunk(ctx, q, expr, anns)
	}

	// Contiguous chunks keep the merge deterministic: concatenating the
	// per-chunk hits in chunk order reproduces the serial (ID) order.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunkSize := (len(anns) + workers - 1) / workers
	results := make([][]*Annotation, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunkSize
		hi := lo + chunkSize
		if hi > len(anns) {
			hi = len(anns)
		}
		wg.Add(1)
		go func(w int, chunk []*Annotation) {
			defer wg.Done()
			hits, err := searchChunk(cctx, q, expr, chunk)
			if err != nil {
				errs[w] = err
				cancel() // stop the other workers promptly
				return
			}
			results[w] = hits
		}(w, anns[lo:hi])
	}
	wg.Wait()
	// Prefer a real evaluation error from the lowest chunk over the
	// derived cancellations it triggered in the others.
	var firstErr error
	for _, err := range errs {
		if err != nil && !isCtxErr(err) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []*Annotation
	for _, hits := range results {
		out = append(out, hits...)
	}
	return out, nil
}

func isCtxErr(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// searchChunk evaluates q over one ascending-ID slice of annotations, all
// in one evaluation scratch.
func searchChunk(ctx context.Context, q *xquery.Query, expr string, anns []*Annotation) ([]*Annotation, error) {
	var out []*Annotation
	var scratch xquery.Scratch
	for i, ann := range anns {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		hit, err := scratch.EvalBool(q, ann.Content)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %q on annotation %d: %w", expr, ann.ID, err)
		}
		if hit {
			out = append(out, ann)
		}
	}
	return out, nil
}

// NormalizeKeyword trims and lower-cases a searched word, as the index
// stores tokens: SearchKeyword applies it, and Annotation.HasToken takes
// what it returns.
func NormalizeKeyword(word string) string {
	return strings.ToLower(strings.TrimSpace(word))
}

// SearchKeyword returns the annotations of which the word is a keyword
// (Annotation.HasToken of the normalized word: case-insensitive, token
// match), in ID order, from the inverted keyword index.
func (v *View) SearchKeyword(word string) []*Annotation {
	// Posting lists ascend by annotation ID, so the result needs no
	// per-call sort.
	ids, _ := v.keywordIdx.Get(NormalizeKeyword(word))
	var out []*Annotation
	if n := ids.Len(); n > 0 {
		out = make([]*Annotation, 0, n)
	}
	ids.Each(func(id uint64) bool {
		if ann := v.annotations.Get(id); ann != nil {
			out = append(out, ann)
		}
		return true
	})
	return out
}

// SearchKeyword is View.SearchKeyword. The bool is ignored; the benchmark
// harness's reader interface still names it.
func (s *Store) SearchKeyword(word string, _ bool) []*Annotation {
	return s.View().SearchKeyword(word)
}

// AnnotationsOfReferent returns the annotations attached to a referent.
func (v *View) AnnotationsOfReferent(refID uint64) []*Annotation {
	var out []*Annotation
	v.graph.InEach(agraph.Referent(refID), func(e agraph.Edge) bool {
		if annID, _, ok := agraph.ContentID(e.From); ok {
			if ann := v.annotations.Get(annID); ann != nil {
				out = append(out, ann)
			}
		}
		return true
	}, agraph.LabelAnnotates)
	sortAnnotations(out)
	return out
}

// AnnotationsWithTerm returns the annotations pointing at the exact
// ontology term.
func (v *View) AnnotationsWithTerm(ontologyName, termID string) []*Annotation {
	var out []*Annotation
	seen := make(map[uint64]bool)
	v.graph.InEach(agraph.Term(ontologyName, termID), func(e agraph.Edge) bool {
		if annID, _, ok := agraph.ContentID(e.From); ok && !seen[annID] {
			seen[annID] = true
			if ann := v.annotations.Get(annID); ann != nil {
				out = append(out, ann)
			}
		}
		return true
	}, agraph.LabelRefersTo)
	sortAnnotations(out)
	return out
}

// AnnotationsWithTermUnder returns the annotations pointing at the given
// term or any of its instances (CI closure) — ontology-expanded retrieval,
// the building block of both paper queries.
func (v *View) AnnotationsWithTermUnder(ontologyName, rootTerm string) ([]*Annotation, error) {
	o, err := v.Ontology(ontologyName)
	if err != nil {
		return nil, err
	}
	instances, err := o.CI(rootTerm)
	if err != nil {
		return nil, err
	}
	terms := append([]string{rootTerm}, instances...)
	seen := make(map[uint64]bool)
	var out []*Annotation
	for _, term := range terms {
		for _, ann := range v.AnnotationsWithTerm(ontologyName, term) {
			if !seen[ann.ID] {
				seen[ann.ID] = true
				out = append(out, ann)
			}
		}
	}
	sortAnnotations(out)
	return out, nil
}

// RelatedAnnotations returns annotations indirectly related to the given
// one: those sharing a referent, or sharing a marked data object. This is
// the paper's "if the same referent is connected to two different
// annotations … the two annotations become indirectly related".
func (v *View) RelatedAnnotations(annID uint64) ([]*Annotation, error) {
	if _, err := v.Annotation(annID); err != nil {
		return nil, err
	}
	seen := map[uint64]bool{annID: true}
	var out []*Annotation
	// The nested visits start from the dense index the enclosing one
	// hands over: no node is looked up by key but the first.
	addAnnotators := func(ref agraph.NodeIndex) {
		v.graph.InEachAt(ref, func(e agraph.Edge, _ agraph.NodeIndex) bool {
			if id, _, ok := agraph.ContentID(e.From); ok && !seen[id] {
				seen[id] = true
				if ann := v.annotations.Get(id); ann != nil {
					out = append(out, ann)
				}
			}
			return true
		}, agraph.LabelAnnotates)
	}
	content, ok := v.graph.Lookup(agraph.ContentRoot(annID))
	if !ok {
		return nil, nil
	}
	v.graph.OutEachAt(content, func(_ agraph.Edge, ref agraph.NodeIndex) bool {
		// Annotations sharing this referent.
		addAnnotators(ref)
		// Annotations marking the same object through other referents.
		v.graph.OutEachAt(ref, func(_ agraph.Edge, obj agraph.NodeIndex) bool {
			v.graph.InEachAt(obj, func(_ agraph.Edge, other agraph.NodeIndex) bool {
				addAnnotators(other)
				return true
			}, agraph.LabelMarks)
			return true
		}, agraph.LabelMarks)
		return true
	}, agraph.LabelAnnotates)
	sortAnnotations(out)
	return out, nil
}

// RelatedAnnotations returns annotations indirectly related to annID.
func (s *Store) RelatedAnnotations(annID uint64) ([]*Annotation, error) {
	return s.View().RelatedAnnotations(annID)
}

// CorrelatedItem is one entry of the correlated-data view: something
// adjacent to an annotation in the a-graph.
type CorrelatedItem struct {
	Node  agraph.NodeRef
	Label agraph.EdgeLabel
	// Description is a human-readable rendering of the target.
	Description string
}

// CorrelatedData implements the query tab's correlated data viewer: the
// data objects the annotation marks, the ontology terms it references,
// and the other annotations reachable through shared referents/objects.
func (v *View) CorrelatedData(annID uint64) ([]CorrelatedItem, error) {
	if _, err := v.Annotation(annID); err != nil {
		return nil, err
	}
	content := agraph.ContentRoot(annID)
	var items []CorrelatedItem
	v.graph.OutEach(content, func(refEdge agraph.Edge) bool {
		v.graph.OutEach(refEdge.To, func(objEdge agraph.Edge) bool {
			items = append(items, CorrelatedItem{
				Node:        objEdge.To,
				Label:       agraph.LabelMarks,
				Description: "object " + objEdge.To.Key(),
			})
			return true
		}, agraph.LabelMarks)
		return true
	}, agraph.LabelAnnotates)
	v.graph.OutEach(content, func(termEdge agraph.Edge) bool {
		key := termEdge.To.Key()
		desc := "term " + key
		if parts := strings.SplitN(key, "/", 2); len(parts) == 2 {
			if o, err := v.Ontology(parts[0]); err == nil {
				if t, ok := o.Term(parts[1]); ok && t.Name != "" {
					desc = fmt.Sprintf("term %s (%s)", t.Name, key)
				}
			}
		}
		items = append(items, CorrelatedItem{
			Node:        termEdge.To,
			Label:       agraph.LabelRefersTo,
			Description: desc,
		})
		return true
	}, agraph.LabelRefersTo)
	related, err := v.RelatedAnnotations(annID)
	if err != nil {
		return nil, err
	}
	for _, rel := range related {
		items = append(items, CorrelatedItem{
			Node:        agraph.ContentRoot(rel.ID),
			Label:       agraph.LabelAnnotates,
			Description: fmt.Sprintf("annotation %d (%s)", rel.ID, rel.DC.First("title")),
		})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Node.Compare(items[j].Node) < 0 })
	return items, nil
}

// PathBetweenAnnotations returns a shortest a-graph path between two
// annotations' content nodes.
func (v *View) PathBetweenAnnotations(a, b uint64) (*agraph.Path, error) {
	if _, err := v.Annotation(a); err != nil {
		return nil, err
	}
	if _, err := v.Annotation(b); err != nil {
		return nil, err
	}
	return v.graph.FindPath(agraph.ContentRoot(a), agraph.ContentRoot(b))
}

// ConnectAnnotations returns a connection subgraph joining the given
// annotations' content nodes (the paper's connect primitive applied to
// query-result collation).
func (v *View) ConnectAnnotations(ids ...uint64) (*agraph.Subgraph, error) {
	refs := make([]agraph.NodeRef, 0, len(ids))
	for _, id := range ids {
		if _, err := v.Annotation(id); err != nil {
			return nil, err
		}
		refs = append(refs, agraph.ContentRoot(id))
	}
	return v.graph.Connect(refs...)
}
