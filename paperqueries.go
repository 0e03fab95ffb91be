package graphitti

import (
	"fmt"
	"sort"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
)

// This file implements the two queries the paper spells out, as reusable
// library calls. Both compose the engine's primitives exactly the way the
// query processor does: per-type sub-queries first, then joins along the
// a-graph.

// TP53Options parameterises QueryTP53Images (the paper's intro query). The
// zero value uses the paper's constants.
type TP53Options struct {
	// Keyword defaults to "protein.TP53".
	Keyword string
	// Ontology and TermName locate the region term; they default to "nif"
	// and "Deep Cerebellar nuclei".
	Ontology string
	TermName string
	// MinRegions defaults to 2.
	MinRegions int
}

func (o *TP53Options) defaults() {
	if o.Keyword == "" {
		o.Keyword = "protein.TP53"
	}
	if o.Ontology == "" {
		o.Ontology = "nif"
	}
	if o.TermName == "" {
		o.TermName = "Deep Cerebellar nuclei"
	}
	if o.MinRegions == 0 {
		o.MinRegions = 2
	}
}

// TP53Result reports the intro query's answer together with the witnesses.
type TP53Result struct {
	// Annotations contain the keyword and have a-graph paths to every
	// qualifying image.
	Annotations []*Annotation
	// QualifyingImages had at least MinRegions regions annotated with the
	// term.
	QualifyingImages []string
	// RegionCounts maps every inspected image to its matching-region
	// count.
	RegionCounts map[string]int
}

// QueryTP53Images implements the paper's §I query: "Find annotations that
// contain the term 'protein.TP53' and have paths to all mouse brain images
// having at least 2 regions annotated with ontology term 'Deep Cerebellar
// nuclei'."
//
// The whole query runs against one pinned store view: the three
// sub-queries and the graph join read a single snapshot, lock-free,
// regardless of concurrent annotation traffic.
func QueryTP53Images(st *Store, opts TP53Options) (*TP53Result, error) {
	opts.defaults()
	s := st.View()

	// Sub-query 1 (ontology): resolve the term and its CI closure.
	ont, err := s.Ontology(opts.Ontology)
	if err != nil {
		return nil, err
	}
	term, ok := ont.TermByName(opts.TermName)
	if !ok {
		return nil, fmt.Errorf("graphitti: term %q not in ontology %s", opts.TermName, opts.Ontology)
	}
	closure := map[string]bool{term.ID: true}
	if ci, err := ont.CI(term.ID); err == nil {
		for _, t := range ci {
			closure[t] = true
		}
	}

	// Sub-query 2 (images x regions): count, per image, the region
	// referents whose annotations point into the term closure.
	res := &TP53Result{RegionCounts: make(map[string]int)}
	for _, imgID := range s.Images() {
		count := 0
		// referents marking this image:
		s.Graph().InEach(agraph.Object(string(TypeImage), imgID), func(e agraph.Edge) bool {
			refID, ok := agraph.ReferentID(e.From)
			if !ok {
				return true
			}
			ref, err := s.Referent(refID)
			if err != nil || ref.Kind != core.RegionReferent {
				return true
			}
			// does any annotation of this referent carry the term? Walk
			// the annotates in-edges zero-copy instead of materialising
			// (and sorting) the annotation list per referent.
			found := false
			s.Graph().InEach(e.From, func(ae agraph.Edge) bool {
				annID, _ := contentRootID(ae.From)
				ann, err := s.Annotation(annID)
				if err != nil {
					return true // not an annotation's root: nothing else annotates
				}
				for _, tr := range ann.Terms {
					if tr.Ontology == opts.Ontology && closure[tr.TermID] {
						found = true
						return false
					}
				}
				return true
			}, agraph.LabelAnnotates)
			if found {
				count++
			}
			return true
		}, agraph.LabelMarks)
		res.RegionCounts[imgID] = count
		if count >= opts.MinRegions {
			res.QualifyingImages = append(res.QualifyingImages, imgID)
		}
	}
	sort.Strings(res.QualifyingImages)

	// Sub-query 3 (contents): keyword candidates.
	candidates := s.SearchKeyword(opts.Keyword, true)

	// Join: keep candidates with a path to every qualifying image. A path
	// exists iff the two nodes share an undirected component, so instead
	// of one whole-graph BFS per (candidate, image) pair, traverse each
	// component containing a qualifying image once and record which
	// annotation roots it holds. Qualifying images discovered during an
	// earlier image's traversal share its component and skip their own.
	if len(res.QualifyingImages) == 0 {
		// No qualifying images: "has paths to all qualifying images" is
		// vacuously true, so every keyword candidate answers the query.
		res.Annotations = append(res.Annotations, candidates...)
	} else if len(candidates) > 0 {
		imgNodes := make([]agraph.NodeRef, len(res.QualifyingImages))
		qualifying := make(map[agraph.NodeRef]bool, len(imgNodes))
		for i, imgID := range res.QualifyingImages {
			imgNodes[i] = agraph.Object(string(TypeImage), imgID)
			qualifying[imgNodes[i]] = true
		}
		imgComp := make(map[agraph.NodeRef]int, len(imgNodes))
		var compAnns []map[uint64]bool
		for _, node := range imgNodes {
			if _, done := imgComp[node]; done {
				continue
			}
			anns := make(map[uint64]bool)
			ci := len(compAnns)
			err := s.Graph().ReachableEach(node, func(n agraph.NodeRef) bool {
				switch n.Kind {
				case agraph.ContentNode:
					if id, ok := contentRootID(n); ok {
						anns[id] = true
					}
				case agraph.ObjectNode:
					if qualifying[n] { // other qualifying images share this component
						imgComp[n] = ci
					}
				}
				return true
			})
			if err != nil {
				continue // image node absent from the graph: nothing reaches it
			}
			compAnns = append(compAnns, anns)
		}
		for _, ann := range candidates {
			hasAll := true
			for _, node := range imgNodes {
				ci, ok := imgComp[node]
				if !ok || !compAnns[ci][ann.ID] {
					hasAll = false
					break
				}
			}
			if hasAll {
				res.Annotations = append(res.Annotations, ann)
			}
		}
	}
	sort.Slice(res.Annotations, func(i, j int) bool { return res.Annotations[i].ID < res.Annotations[j].ID })
	return res, nil
}

// contentRootID parses the annotation ID out of a content-root node ref
// (XML node 1).
func contentRootID(ref agraph.NodeRef) (uint64, bool) {
	ann, node, ok := agraph.ContentID(ref)
	return ann, ok && node == 1
}

// Chain is one answer of QueryConsecutiveKeyword: k consecutive disjoint
// interval referents on one domain, each carrying the keyword, plus the
// sequences that own them.
type Chain struct {
	Domain    string
	Referents []*Referent
	// Sequences are the distinct owning sequence IDs, sorted.
	Sequences []string
	// Annotations holds one witnessing annotation per link.
	Annotations []*Annotation
}

// ConsecutiveOptions parameterises QueryConsecutiveKeyword. The zero value
// uses the paper's constants (k=4, keyword "protease").
type ConsecutiveOptions struct {
	Keyword string
	K       int
	// Ontology/ClassTerm optionally restrict to sequences whose
	// annotations reference the class (the paper's "all proteins
	// belonging to an ontological class").
	Ontology  string
	ClassTerm string
}

func (o *ConsecutiveOptions) defaults() {
	if o.Keyword == "" {
		o.Keyword = "protease"
	}
	if o.K == 0 {
		o.K = 4
	}
}

// QueryConsecutiveKeyword implements the paper's §III query-tab query:
// "find annotated sequences of all proteins belonging to an ontological
// class, where 4 consecutive non-overlapping intervals in the sequence has
// annotations having the keyword 'protease' in each of them."
func QueryConsecutiveKeyword(st *Store, opts ConsecutiveOptions) ([]*Chain, error) {
	opts.defaults()
	s := st.View() // one pinned snapshot for both sub-queries

	// Sub-query 1 (contents): annotations carrying the keyword, and the
	// interval referents they annotate, grouped by domain.
	anns := s.SearchKeyword(opts.Keyword, true)
	witness := make(map[uint64]*Annotation) // referent -> one annotation
	perDomain := make(map[string][]*Referent)
	for _, ann := range anns {
		if opts.Ontology != "" && !annotationInClass(s, ann, opts.Ontology, opts.ClassTerm) {
			continue
		}
		for _, refID := range ann.ReferentIDs {
			ref, err := s.Referent(refID)
			if err != nil || ref.Kind != core.IntervalReferent {
				continue
			}
			if _, dup := witness[refID]; !dup {
				witness[refID] = ann
				perDomain[ref.Domain] = append(perDomain[ref.Domain], ref)
			}
		}
	}

	// Sub-query 2 (interval algebra): in each domain, find maximal runs of
	// K consecutive, pairwise-disjoint marks.
	var chains []*Chain
	domains := make([]string, 0, len(perDomain))
	for d := range perDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, domain := range domains {
		refs := perDomain[domain]
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].Interval.Lo != refs[j].Interval.Lo {
				return refs[i].Interval.Lo < refs[j].Interval.Lo
			}
			return refs[i].Interval.Hi < refs[j].Interval.Hi
		})
		for start := 0; start+opts.K <= len(refs); start++ {
			run := []*Referent{refs[start]}
			last := refs[start].Interval
			for next := start + 1; next < len(refs) && len(run) < opts.K; next++ {
				iv := refs[next].Interval
				if iv.Lo >= last.Hi {
					run = append(run, refs[next])
					last = iv
				}
			}
			if len(run) == opts.K {
				chains = append(chains, buildChain(s, domain, run, witness))
			}
		}
	}
	return dedupChains(chains), nil
}

func buildChain(s *core.View, domain string, run []*Referent, witness map[uint64]*Annotation) *Chain {
	c := &Chain{Domain: domain}
	seqSet := make(map[string]bool)
	for _, r := range run {
		c.Referents = append(c.Referents, r)
		seqSet[r.ObjectID] = true
		if ann := witness[r.ID]; ann != nil {
			c.Annotations = append(c.Annotations, ann)
		}
	}
	for id := range seqSet {
		c.Sequences = append(c.Sequences, id)
	}
	sort.Strings(c.Sequences)
	return c
}

func dedupChains(chains []*Chain) []*Chain {
	seen := make(map[string]bool)
	var out []*Chain
	for _, c := range chains {
		key := c.Domain
		for _, r := range c.Referents {
			key += fmt.Sprintf("|%d", r.ID)
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

func annotationInClass(s *core.View, ann *Annotation, ontName, classTerm string) bool {
	ont, err := s.Ontology(ontName)
	if err != nil {
		return false
	}
	closure := map[string]bool{classTerm: true}
	if ci, err := ont.CI(classTerm); err == nil {
		for _, t := range ci {
			closure[t] = true
		}
	}
	for _, tr := range ann.Terms {
		if tr.Ontology == ontName && closure[tr.TermID] {
			return true
		}
	}
	return false
}

// MarkAndAnnotate is a convenience that marks a sequence interval and
// commits a one-referent annotation in one call; the quickstart uses it.
func MarkAndAnnotate(s *Store, seqID string, iv Interval, creator, date, body string) (*Annotation, error) {
	m, err := s.View().MarkSequenceInterval(seqID, iv)
	if err != nil {
		return nil, err
	}
	return s.Commit(s.NewAnnotation().Creator(creator).Date(date).Body(body).Refer(m))
}
