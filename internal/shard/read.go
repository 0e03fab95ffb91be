package shard

// Merged reads: every read pins one view per shard and combines the
// per-shard answers deterministically — a k-way merge by ID of lists that
// are each in ID order already (or a name-order sort), exploiting that
// IDs are globally unique and that each object is homed on exactly one
// shard. Over one shard the merge hands back that shard's own list. The
// per-shard view set is not a single atomic snapshot of the whole
// deployment: each shard's view is individually consistent, and a reader
// can observe shard A's commit before shard B's concurrent one (the
// anomaly-free property the paper's setting needs is per-annotation
// atomicity, which per-shard views preserve).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/query"
)

// Views pins the current view of every shard, indexed by shard.
func (s *Store) Views() []*core.View {
	out := make([]*core.View, s.NumShards())
	for k := range out {
		out[k] = s.shardCore(k).View()
	}
	return out
}

// View returns shard k's current view.
func (s *Store) View(k int) *core.View { return s.shardCore(k).View() }

// Epoch returns the sum of the per-shard view epochs: the total number
// of mutations published across the deployment.
func (s *Store) Epoch() uint64 {
	var sum uint64
	for _, v := range s.Views() {
		sum += v.Epoch()
	}
	return sum
}

// Stats merges the per-shard component sizes. Routed components sum;
// broadcast components (ontologies) read from shard 0; components that
// can appear on several shards (graph nodes for shared terms, keywords,
// interval-tree domains touched by cross-shard commits) count the union —
// which over one view is that view's own count.
func (s *Store) Stats() core.Stats {
	if s.NumShards() == 1 {
		return s.View(0).Stats()
	}
	views := s.Views()
	var st core.Stats
	domains := map[string]bool{}
	keywords := map[string]bool{}
	nodes := map[agraph.NodeRef]bool{}
	for _, v := range views {
		vs := v.Stats()
		st.Annotations += vs.Annotations
		st.Referents += vs.Referents
		st.Sequences += vs.Sequences
		st.Alignments += vs.Alignments
		st.Trees += vs.Trees
		st.InteractionGraphs += vs.InteractionGraphs
		st.Images += vs.Images
		st.RTrees += vs.RTrees
		st.GraphEdges += vs.GraphEdges
		st.Derived += vs.Derived
		for _, d := range v.IntervalDomains() {
			domains[d] = true
		}
		v.EachKeyword(func(w string) bool { keywords[w] = true; return true })
		v.Graph().NodesEach(func(n agraph.NodeRef) bool { nodes[n] = true; return true })
	}
	st.Ontologies = views[0].Stats().Ontologies
	st.IntervalTrees = len(domains)
	st.Keywords = len(keywords)
	st.GraphNodes = len(nodes)
	return st
}

// Annotation returns a committed annotation from its owner shard.
func (s *Store) Annotation(id uint64) (*core.Annotation, error) {
	for k := range s.pipes {
		if ann, err := s.View(k).Annotation(id); err == nil {
			return ann, nil
		}
	}
	return nil, errNoSuchAnnotation(id)
}

// Referent returns a committed referent from its owner shard.
func (s *Store) Referent(id uint64) (*core.Referent, error) {
	for k := range s.pipes {
		if r, err := s.View(k).Referent(id); err == nil {
			return r, nil
		}
	}
	return nil, errNoSuchReferent(id)
}

// Annotations returns all committed annotations across shards, merged in
// ID order.
func (s *Store) Annotations() []*core.Annotation {
	return mergeByID(perShard(s, (*core.View).Annotations), annotationID)
}

// AnnotationIDs returns the IDs of all committed annotations, sorted.
func (s *Store) AnnotationIDs() []uint64 {
	return mergeByID(perShard(s, (*core.View).AnnotationIDs), func(id uint64) uint64 { return id })
}

// Referents returns all committed referents across shards in ID order.
func (s *Store) Referents() []*core.Referent {
	return mergeByID(perShard(s, (*core.View).Referents), func(r *core.Referent) uint64 { return r.ID })
}

// ObjectList returns every registered data object across shards, sorted
// by (type, id) — each object is homed on exactly one shard, so this is
// the same list the unsharded store would hold.
func (s *Store) ObjectList() []core.ObjectHandle {
	var out []core.ObjectHandle
	for _, v := range s.Views() {
		out = append(out, v.ObjectList()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Ontologies returns the registered ontology names (broadcast; shard 0).
func (s *Store) Ontologies() []string { return s.shardCore(0).Ontologies() }

// ReferentsAt routes the point stab to the domain's owner shard.
func (s *Store) ReferentsAt(domain string, pos int64) []*core.Referent {
	return s.shardCore(s.router.ShardOfKey(domain)).ReferentsAt(domain, pos)
}

// SearchKeyword merges the per-shard keyword hits in ID order.
func (s *Store) SearchKeyword(word string, useIndex bool) []*core.Annotation {
	hits := func(v *core.View) []*core.Annotation { return v.SearchKeyword(word, useIndex) }
	return mergeByID(perShard(s, hits), annotationID)
}

// SearchContents evaluates a content search against every shard.
func (s *Store) SearchContents(expr string) ([]*core.Annotation, error) {
	return s.SearchContentsCtx(context.Background(), expr)
}

// SearchContentsCtx fans the scan out across shards (each shard scans
// its own view in parallel internally) and merges the hits in ID order —
// byte-identical to the unsharded scan of the merged annotation set.
func (s *Store) SearchContentsCtx(ctx context.Context, expr string) ([]*core.Annotation, error) {
	views := s.Views()
	results := make([][]*core.Annotation, len(views))
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for k, v := range views {
		wg.Add(1)
		go func(k int, v *core.View) {
			defer wg.Done()
			results[k], errs[k] = v.SearchContentsCtx(ctx, expr)
		}(k, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeByID(results, annotationID), nil
}

// RelatedAnnotations answers from the annotation's owner shard (shared
// referents are intra-shard by routing).
func (s *Store) RelatedAnnotations(id uint64) ([]*core.Annotation, error) {
	k, ok := s.ownerOfAnnotation(id)
	if !ok {
		return nil, errNoSuchAnnotation(id)
	}
	return s.shardCore(k).RelatedAnnotations(id)
}

// CorrelatedData answers from the annotation's owner shard.
func (s *Store) CorrelatedData(id uint64) ([]core.CorrelatedItem, error) {
	k, ok := s.ownerOfAnnotation(id)
	if !ok {
		return nil, errNoSuchAnnotation(id)
	}
	return s.shardCore(k).CorrelatedData(id)
}

// DerivedAll merges the per-shard derived tables in source-ID order,
// preserving each source's fact order — the global DerivedEach order,
// since every source annotation lives on exactly one shard.
func (s *Store) DerivedAll() []core.DerivedFact {
	var out []core.DerivedFact
	for _, v := range s.Views() {
		out = append(out, v.DerivedAll()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// DerivedTargeting merges the provenance of one target node across
// shards: per-shard lists are (ascending source, canonical fact order)
// already, and sources are globally unique, so a stable source-order
// merge reproduces the unsharded order.
func (s *Store) DerivedTargeting(target agraph.NodeRef) []core.DerivedFact {
	var out []core.DerivedFact
	for _, v := range s.Views() {
		out = append(out, v.DerivedTargeting(target)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// DerivedFrom returns the facts derived from one source annotation
// (owner shard; empty if the annotation is unknown).
func (s *Store) DerivedFrom(src uint64) []core.DerivedFact {
	k, ok := s.ownerOfAnnotation(src)
	if !ok {
		return nil
	}
	return s.shardCore(k).View().DerivedFrom(src)
}

// DerivedOnto returns the facts derived onto an annotation. Sources that
// could target it share its routing domain, so the owner shard holds
// them all.
func (s *Store) DerivedOnto(id uint64) ([]core.DerivedFact, error) {
	k, ok := s.ownerOfAnnotation(id)
	if !ok {
		return nil, errNoSuchAnnotation(id)
	}
	return s.shardCore(k).View().DerivedOnto(id)
}

// DerivedSourceEpoch returns the owner shard's derived epoch for src.
func (s *Store) DerivedSourceEpoch(src uint64) uint64 {
	k, ok := s.ownerOfAnnotation(src)
	if !ok {
		return 0
	}
	return s.shardCore(k).View().DerivedSourceEpoch(src)
}

// Query executes one query against every shard and merges the results
// in ID order (annotations, referents) / shard order (subgraphs).
// Planner statistics sum across shards; Order and Strategies report
// shard 0's plan. MaxResults caps each shard's enumeration and the
// merged result is re-capped, so the cap holds but which matches
// survive can differ from the unsharded store.
func (s *Store) Query(ctx context.Context, src string, opts query.Options) (*query.Result, error) {
	n := s.NumShards()
	results := make([]*query.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			proc := query.NewProcessor(s.shardCore(k))
			results[k], errs[k] = proc.ExecuteCtx(ctx, src, opts)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &query.Result{
		Kind: results[0].Kind,
		Stats: query.Stats{
			Order:           results[0].Stats.Order,
			Strategies:      results[0].Stats.Strategies,
			CandidateCounts: map[string]int{},
			Costs:           map[string]float64{},
		},
	}
	for _, r := range results {
		out.Matches = append(out.Matches, r.Matches...)
		out.Annotations = append(out.Annotations, r.Annotations...)
		out.Referents = append(out.Referents, r.Referents...)
		out.Subgraphs = append(out.Subgraphs, r.Subgraphs...)
		out.Stats.Matches += r.Stats.Matches
		out.Stats.BindingsTried += r.Stats.BindingsTried
		for v, c := range r.Stats.CandidateCounts {
			out.Stats.CandidateCounts[v] += c
		}
		for v, c := range r.Stats.Costs {
			out.Stats.Costs[v] += c
		}
	}
	sortByID(out.Annotations)
	sort.Slice(out.Referents, func(i, j int) bool { return out.Referents[i].ID < out.Referents[j].ID })
	// Each shard kept to the cap on its own; only when together they
	// exceed it is there anything to cut (never over one shard, whose
	// answer is then the unsharded store's to the byte).
	if opts.MaxResults > 0 && len(out.Matches) > opts.MaxResults {
		capTo := func(n int) int {
			if n > opts.MaxResults {
				return opts.MaxResults
			}
			return n
		}
		out.Matches = out.Matches[:capTo(len(out.Matches))]
		out.Annotations = out.Annotations[:capTo(len(out.Annotations))]
		out.Referents = out.Referents[:capTo(len(out.Referents))]
		out.Subgraphs = out.Subgraphs[:capTo(len(out.Subgraphs))]
		if out.Stats.Matches > opts.MaxResults {
			out.Stats.Matches = opts.MaxResults
		}
	}
	return out, nil
}

// Export merges the per-shard snapshots into one, ordered exactly as the
// unsharded exporter orders it: every section sorted by its primary key
// (each object is homed on one shard, so concatenation + sort is the
// global sorted order); ontologies and rules from shard 0; ID counters
// the per-shard maxima.
func (s *Store) Export() (*persist.Snapshot, error) {
	n := s.NumShards()
	snaps := make([]*persist.Snapshot, n)
	for k := 0; k < n; k++ {
		snap, err := persist.Export(s.shardCore(k))
		if err != nil {
			return nil, tag(k, err)
		}
		snaps[k] = snap
	}
	out := &persist.Snapshot{
		Version:    persist.Version,
		Ontologies: snaps[0].Ontologies,
		Rules:      snaps[0].Rules,
	}
	for _, snap := range snaps {
		out.Systems = append(out.Systems, snap.Systems...)
		out.Sequences = append(out.Sequences, snap.Sequences...)
		out.Alignments = append(out.Alignments, snap.Alignments...)
		out.Trees = append(out.Trees, snap.Trees...)
		out.Graphs = append(out.Graphs, snap.Graphs...)
		out.Images = append(out.Images, snap.Images...)
		out.RecordTables = append(out.RecordTables, snap.RecordTables...)
		out.Annotations = append(out.Annotations, snap.Annotations...)
		if snap.NextAnn > out.NextAnn {
			out.NextAnn = snap.NextAnn
		}
		if snap.NextRef > out.NextRef {
			out.NextRef = snap.NextRef
		}
	}
	sort.Slice(out.Systems, func(i, j int) bool { return out.Systems[i].Name < out.Systems[j].Name })
	sort.Slice(out.Sequences, func(i, j int) bool { return out.Sequences[i].ID < out.Sequences[j].ID })
	sort.Slice(out.Alignments, func(i, j int) bool { return out.Alignments[i].ID < out.Alignments[j].ID })
	sort.Slice(out.Trees, func(i, j int) bool { return out.Trees[i].ID < out.Trees[j].ID })
	sort.Slice(out.Graphs, func(i, j int) bool { return out.Graphs[i].ID < out.Graphs[j].ID })
	sort.Slice(out.Images, func(i, j int) bool { return out.Images[i].ID < out.Images[j].ID })
	sort.Slice(out.RecordTables, func(i, j int) bool { return out.RecordTables[i].Name < out.RecordTables[j].Name })
	sort.Slice(out.Annotations, func(i, j int) bool { return out.Annotations[i].ID < out.Annotations[j].ID })
	return out, nil
}

// ErrBadSnapshot is wrapped around a Restore refused because of what the
// snapshot holds (a version, an ID, a reference the loader rejects), as
// opposed to a fault of the store it was being restored into.
var ErrBadSnapshot = errors.New("shard: snapshot refused")

// Restore replaces the deployment's entire state with snap: each shard
// loads the entries route — the rule live ops are placed by — puts on it
// (broadcast ones, rules and the ID counters on every shard) and, with a
// log, checkpoints them. Runs under the inter-shard channel (excluding
// broadcasts and cross-shard commits) and every shard's writer latch
// (excluding routed mutations), so nothing can be acknowledged into a
// core this swap replaces — a commit concurrent with Restore either
// completes before the swap and is replaced with the rest of the old
// state, or waits and lands in the restored state.
//
// A bad snapshot changes nothing: every shard's part is loaded before any
// is installed, and a part the loader rejects fails the call with
// ErrBadSnapshot while memory and disk still hold the previous state on
// every shard. The install itself is per directory, so a checkpoint I/O
// fault during it can still stop with some shards restored and others
// not (the error names the shard); closing that needs a deployment-level
// commit record.
func (s *Store) Restore(snap *persist.Snapshot) error {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for k := range s.smu {
		s.smu[k].Lock()
		defer s.smu[k].Unlock()
	}
	staged := make([]*core.Store, s.NumShards())
	if err := s.eachShard(func(k int) error {
		var err error
		staged[k], err = s.pipes[k].Stage(snap, s.placedOn(k))
		return err
	}); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	s.gseq.Add(1)
	if err := s.eachShard(func(k int) error { return s.pipes[k].Install(staged[k]) }); err != nil {
		return err
	}
	s.advanceIDs()
	return nil
}

// placedOn reports, for an op, whether route puts it on shard k. Over one
// shard everything is, and nil says so without asking.
func (s *Store) placedOn(k int) func(persist.Op) bool {
	if s.NumShards() == 1 {
		return nil
	}
	return func(op persist.Op) bool {
		key, all, _ := route(op) // the loader builds only kinds route knows
		return all || s.router.ShardOfKey(key) == k
	}
}

// routeKeyOfAnnotationDump is routeBuilder's key for a serialized
// annotation: its first mark's route key, else its first term's ontology.
// (Commit routes the live builder; this is its dump-side pair.)
func routeKeyOfAnnotationDump(d persist.AnnotationDump) string {
	for _, rd := range d.Referents {
		return routeKeyOfDump(rd)
	}
	if len(d.Terms) > 0 {
		return d.Terms[0].Ontology
	}
	return ""
}

// routeKeyOfDump mirrors core.Referent.RouteKey for serialized marks.
func routeKeyOfDump(d persist.ReferentDump) string {
	if core.ReferentKind(d.Kind) == core.ObjectReferent {
		return d.ObjectID
	}
	if d.Domain != "" {
		return d.Domain
	}
	return d.ObjectID
}

// ShardHealth is one shard's durability health, tagged with its ID.
type ShardHealth struct {
	Shard int `json:"shard"`
	durable.Health
}

// Health reports every shard's degradation state.
func (s *Store) Health() []ShardHealth {
	out := make([]ShardHealth, s.NumShards())
	for k, p := range s.pipes {
		out[k] = ShardHealth{Shard: k, Health: p.Health()}
	}
	return out
}

// DegradedShards lists the shards currently refusing writes.
func (s *Store) DegradedShards() []int {
	var out []int
	for _, h := range s.Health() {
		if h.State != durable.StateHealthy {
			out = append(out, h.Shard)
		}
	}
	return out
}

// Reopen recovers one degraded shard (no-op when healthy).
func (s *Store) Reopen(k int) error {
	if _, err := s.pipes[k].Reopen(); err != nil {
		return tag(k, err)
	}
	s.advanceIDs()
	return nil
}

// DurabilityStats returns the per-shard durability counters (nil when
// the pipelines have no log).
func (s *Store) DurabilityStats() []durable.Stats {
	if !s.Durable() {
		return nil
	}
	out := make([]durable.Stats, len(s.pipes))
	for k, p := range s.pipes {
		out[k] = p.Stats()
	}
	return out
}

// perShard collects one list from each shard's current view.
func perShard[T any](s *Store, list func(*core.View) []T) [][]T {
	lists := make([][]T, s.NumShards())
	for k := range lists {
		lists[k] = list(s.View(k))
	}
	return lists
}

// mergeByID merges lists that are each in ascending ID order, with IDs
// unique across them, into one list in ID order. A single non-empty list
// is returned as it is; otherwise the smallest head moves over, one
// element at a time — shard counts are small, so a scan of the heads
// beats a heap.
func mergeByID[T any](lists [][]T, id func(T) uint64) []T {
	total := 0
	var only []T // the non-empty list, while there is just one
	for _, l := range lists {
		if len(l) > 0 {
			total, only = total+len(l), l
		}
	}
	if total == len(only) {
		return only
	}
	out := make([]T, 0, total)
	for len(out) < total {
		best := -1
		for k, l := range lists {
			if len(l) > 0 && (best < 0 || id(l[0]) < id(lists[best][0])) {
				best = k
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

func annotationID(a *core.Annotation) uint64 { return a.ID }

func sortByID(out []*core.Annotation) {
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
}

func errNoSuchAnnotation(id uint64) error {
	return fmt.Errorf("%w: %d", core.ErrNoSuchAnnotation, id)
}

func errNoSuchReferent(id uint64) error {
	return fmt.Errorf("%w: %d", core.ErrNoSuchReferent, id)
}
