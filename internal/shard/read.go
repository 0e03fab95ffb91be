package shard

// Merged reads. A read of the deployment is a method of Views: one view
// per shard, pinned together by Store.Views. A caller that pins once and
// answers from that one value — every HTTP request does — sees each shard
// at one epoch, however many reads its answer takes. Each method combines
// the per-shard answers deterministically — a k-way merge by ID of lists
// that are each in ID order already (or a name-order sort), exploiting
// that IDs are globally unique and that each object is homed on exactly
// one shard. Over one shard the merge hands back that shard's own list.
// A view set is not a single atomic snapshot of the whole deployment:
// each shard's view is individually consistent, and a reader can observe
// shard A's commit before shard B's concurrent one (the anomaly-free
// property the paper's setting needs is per-annotation atomicity, which
// per-shard views preserve).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/query"
	"graphitti/internal/rtree"
)

// Views is one pinned view per shard, indexed by shard: the read API of a
// shard set. It is immutable, and every answer it gives is a function of
// these views alone.
type Views []*core.View

// Views pins the current view of every shard.
func (s *Store) Views() Views {
	out := make(Views, s.NumShards())
	for k := range out {
		out[k] = s.shardCore(k).View()
	}
	return out
}

// Annotation, RelatedAnnotations, ReferentsAt, SearchKeyword and
// MarkDomainInterval each pin a view set for one read; the benchmark
// harness calls them on a Store.

// Annotation returns a committed annotation from its owner shard.
func (s *Store) Annotation(id uint64) (*core.Annotation, error) { return s.Views().Annotation(id) }

// RelatedAnnotations answers from the annotation's owner shard.
func (s *Store) RelatedAnnotations(id uint64) ([]*core.Annotation, error) {
	return s.Views().RelatedAnnotations(id)
}

// ReferentsAt stabs every shard's interval tree of the domain.
func (s *Store) ReferentsAt(domain string, pos int64) []*core.Referent {
	return s.Views().ReferentsAt(domain, pos)
}

// SearchKeyword merges the per-shard keyword hits in ID order.
func (s *Store) SearchKeyword(word string, useIndex bool) []*core.Annotation {
	return s.Views().SearchKeyword(word, useIndex)
}

// MarkDomainInterval marks an interval of a coordinate domain.
func (s *Store) MarkDomainInterval(domain string, iv interval.Interval) (*core.Referent, error) {
	return s.Views().MarkDomainInterval(domain, iv)
}

// Rules returns the propagation rules the pinned views share
// (prop.SharedRules): a rule op is broadcast, so every shard holds the same
// set, unless a broadcast reached only some, which is refused with
// prop.ErrSplitRules until the op is re-issued.
func (vs Views) Rules() ([]prop.Rule, error) { return prop.SharedRules(vs) }

// Epoch returns the sum of the per-shard view epochs: the total number
// of mutations published across the deployment up to this view set.
func (vs Views) Epoch() uint64 {
	var sum uint64
	for _, v := range vs {
		sum += v.Epoch()
	}
	return sum
}

// Stats merges the per-shard component sizes. Routed components sum;
// broadcast components (ontologies) read from shard 0; components that
// can appear on several shards (graph nodes for shared terms, keywords,
// interval-tree domains touched by cross-shard commits) count the union —
// which over one view is that view's own count. A keyword or a node is
// counted on the first shard that holds it: each shard's are looked up in
// the shards before it, so no set of the whole store is built.
func (vs Views) Stats() core.Stats {
	if len(vs) == 1 {
		return vs[0].Stats()
	}
	var st core.Stats
	domains := map[string]bool{}
	for k, v := range vs {
		earlier := vs[:k]
		vst := v.Stats()
		st.Annotations += vst.Annotations
		st.Referents += vst.Referents
		st.Sequences += vst.Sequences
		st.Alignments += vst.Alignments
		st.Trees += vst.Trees
		st.InteractionGraphs += vst.InteractionGraphs
		st.Images += vst.Images
		st.RTrees += vst.RTrees
		st.GraphEdges += vst.GraphEdges
		st.Derived += vst.Derived
		for _, d := range v.IntervalDomains() {
			domains[d] = true
		}
		v.EachKeyword(func(w string) bool {
			if !slices.ContainsFunc(earlier, func(u *core.View) bool { return u.IndexesKeyword(w) }) {
				st.Keywords++
			}
			return true
		})
		v.Graph().NodesEach(func(n agraph.NodeRef) bool {
			if !slices.ContainsFunc(earlier, func(u *core.View) bool { return u.Graph().HasNode(n) }) {
				st.GraphNodes++
			}
			return true
		})
	}
	st.Ontologies = vs[0].Stats().Ontologies
	st.IntervalTrees = len(domains)
	return st
}

// ownerOfAnnotation finds the shard whose view holds a committed
// annotation (0 when none does).
func (vs Views) ownerOfAnnotation(id uint64) (int, bool) {
	for k, v := range vs {
		if _, err := v.Annotation(id); err == nil {
			return k, true
		}
	}
	return 0, false
}

// ownerOfReferent finds the shard whose view holds a committed referent.
func (vs Views) ownerOfReferent(id uint64) (int, bool) {
	for k, v := range vs {
		if _, err := v.Referent(id); err == nil {
			return k, true
		}
	}
	return 0, false
}

// owner is the view of the shard holding annotation id, which answers
// every read about it: shared referents and the sources of the facts
// derived onto it are intra-shard by routing. When no shard holds id,
// shard 0's view answers, as the unsharded store would (no such
// annotation, or nothing derived).
func (vs Views) owner(id uint64) *core.View {
	k, _ := vs.ownerOfAnnotation(id)
	return vs[k]
}

// Annotation returns a committed annotation from its owner shard.
func (vs Views) Annotation(id uint64) (*core.Annotation, error) { return vs.owner(id).Annotation(id) }

// Annotations returns all committed annotations across shards, merged in
// ID order.
func (vs Views) Annotations() []*core.Annotation {
	return mergeByID(perShard(vs, (*core.View).Annotations), annotationID)
}

// ObjectList returns every registered data object across shards, sorted
// by (type, id) — each object is homed on exactly one shard, so this is
// the same list the unsharded store would hold.
func (vs Views) ObjectList() []core.ObjectHandle {
	var out []core.ObjectHandle
	for _, v := range vs {
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

// ReferentsAt merges every shard's stab of the domain by ID. The domain's
// owner shard holds the referents of the annotations homed there, but a
// cross-shard annotation commits whole to its home shard, interval trees
// for its other domains included; a stab of the owner alone misses those.
// When nothing crosses shards the other lists are empty and the owner's
// list comes back as it is.
func (vs Views) ReferentsAt(domain string, pos int64) []*core.Referent {
	stab := func(v *core.View) []*core.Referent { return v.ReferentsAt(domain, pos) }
	return mergeByID(perShard(vs, stab), func(r *core.Referent) uint64 { return r.ID })
}

// SearchKeyword merges the per-shard keyword hits in ID order.
func (vs Views) SearchKeyword(word string, useIndex bool) []*core.Annotation {
	hits := func(v *core.View) []*core.Annotation { return v.SearchKeyword(word, useIndex) }
	return mergeByID(perShard(vs, hits), annotationID)
}

// SearchContentsCtx fans the scan out across shards (each shard scans
// its own view in parallel internally) and merges the hits in ID order —
// byte-identical to the unsharded scan of the merged annotation set.
func (vs Views) SearchContentsCtx(ctx context.Context, expr string) ([]*core.Annotation, error) {
	results := make([][]*core.Annotation, len(vs))
	errs := make([]error, len(vs))
	var wg sync.WaitGroup
	for k, v := range vs {
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

// RelatedAnnotations answers from the annotation's owner shard.
func (vs Views) RelatedAnnotations(id uint64) ([]*core.Annotation, error) {
	return vs.owner(id).RelatedAnnotations(id)
}

// CorrelatedData answers from the annotation's owner shard.
func (vs Views) CorrelatedData(id uint64) ([]core.CorrelatedItem, error) {
	return vs.owner(id).CorrelatedData(id)
}

// DerivedFrom returns the facts derived from one source annotation
// (owner shard; empty if the annotation is unknown).
func (vs Views) DerivedFrom(src uint64) []core.DerivedFact { return vs.owner(src).DerivedFrom(src) }

// DerivedOnto returns the facts derived onto an annotation (owner shard).
func (vs Views) DerivedOnto(id uint64) ([]core.DerivedFact, error) {
	return vs.owner(id).DerivedOnto(id)
}

// DerivedSourceEpoch returns the owner shard's derived epoch for src.
func (vs Views) DerivedSourceEpoch(src uint64) uint64 { return vs.owner(src).DerivedSourceEpoch(src) }

// ErrCrossProduct refuses a query, over more than one shard, whose
// variables fall into groups no edge pattern joins. Such a pattern asks
// for the cross product of the groups' answers, and a pair whose parts are
// homed on two shards is in no shard's answer: Query, which concatenates
// the per-shard answers, would miss every such pair.
var ErrCrossProduct = errors.New("shard: a query pattern whose variables are not all joined")

// Query executes one query against every shard's view and merges the
// results in ID order (annotations, referents) / shard order (subgraphs).
// Over more than one shard a pattern that is a cross product is refused
// with ErrCrossProduct.
// Planner statistics sum across shards; Order and Strategies report
// shard 0's plan. The cap — MaxResults, or the query's own limit clause
// when that is lower — caps each shard's enumeration and the merged
// result is re-capped, so the cap holds but which matches survive can
// differ from the unsharded store.
func (vs Views) Query(ctx context.Context, src string, opts query.Options) (*query.Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if groups := q.Components(); len(vs) > 1 && len(groups) > 1 {
		names := make([]string, len(groups))
		for i, g := range groups {
			names[i] = "{?" + strings.Join(g, " ?") + "}"
		}
		return nil, fmt.Errorf("%w: no edge joins %s, over %d shards; join them with an edge pattern",
			ErrCrossProduct, strings.Join(names, " and "), len(vs))
	}
	results := make([]*query.Result, len(vs))
	errs := make([]error, len(vs))
	var wg sync.WaitGroup
	for k, v := range vs {
		wg.Add(1)
		go func(k int, v *core.View) {
			defer wg.Done()
			results[k], errs[k] = query.Run(ctx, v, q, opts)
		}(k, v)
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
	limit := opts.MaxResults
	if q.Limit > 0 && (limit == 0 || q.Limit < limit) {
		limit = q.Limit
	}
	if limit > 0 && len(out.Matches) > limit {
		capTo := func(n int) int { return min(n, limit) }
		out.Matches = out.Matches[:capTo(len(out.Matches))]
		out.Annotations = out.Annotations[:capTo(len(out.Annotations))]
		out.Referents = out.Referents[:capTo(len(out.Referents))]
		out.Subgraphs = out.Subgraphs[:capTo(len(out.Subgraphs))]
		out.Stats.Matches = capTo(out.Stats.Matches)
	}
	return out, nil
}

// Mark constructors. Marks are read-only (registered at commit); each is
// resolved against the view of the shard that owns the underlying
// object, found by routing key where the key is part of the call and by
// probing otherwise.

// home is the view of the shard a routing key places on.
func (vs Views) home(key string) *core.View {
	return vs[core.Router{Shards: len(vs)}.ShardOfKey(key)]
}

// MarkDomainInterval marks an interval in a coordinate domain.
func (vs Views) MarkDomainInterval(domain string, iv interval.Interval) (*core.Referent, error) {
	return vs.home(domain).MarkDomainInterval(domain, iv)
}

// MarkSequenceInterval marks an interval of a registered sequence.
func (vs Views) MarkSequenceInterval(seqID string, local interval.Interval) (*core.Referent, error) {
	for _, v := range vs {
		if _, _, err := v.Sequence(seqID); err == nil {
			return v.MarkSequenceInterval(seqID, local)
		}
	}
	return nil, fmt.Errorf("%w: sequence %s", core.ErrNoSuchObject, seqID)
}

// MarkImageRegion marks a rectangle in image-local coordinates.
func (vs Views) MarkImageRegion(imageID string, local rtree.Rect) (*core.Referent, error) {
	for _, v := range vs {
		if _, err := v.Image(imageID); err == nil {
			return v.MarkImageRegion(imageID, local)
		}
	}
	return nil, fmt.Errorf("%w: image %s", core.ErrNoSuchObject, imageID)
}

// MarkClade marks a clade of a registered tree.
func (vs Views) MarkClade(treeID string, leaves ...string) (*core.Referent, error) {
	return vs.home(treeID).MarkClade(treeID, leaves...)
}

// MarkSubgraph marks an induced subgraph of an interaction graph.
func (vs Views) MarkSubgraph(graphID string, molecules ...string) (*core.Referent, error) {
	return vs.home(graphID).MarkSubgraph(graphID, molecules...)
}

// MarkAlignmentBlock marks a block of a registered alignment.
func (vs Views) MarkAlignmentBlock(alnID string, rows []string, cols interval.Interval) (*core.Referent, error) {
	return vs.home(alnID).MarkAlignmentBlock(alnID, rows, cols)
}

// MarkObject marks a whole registered data object.
func (vs Views) MarkObject(typ core.ObjectType, objectID string) (*core.Referent, error) {
	var firstErr error
	for _, v := range vs {
		r, err := v.MarkObject(typ, objectID)
		if err == nil {
			return r, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// ErrBadSnapshot is wrapped around a Restore refused because of what the
// snapshot holds (a version, an ID, a reference the loader rejects), as
// opposed to a fault of the store it was being restored into.
var ErrBadSnapshot = errors.New("shard: snapshot refused")

// Restore replaces the deployment's entire state with the snapshot src
// yields: each shard loads the ops route — the rule live ops are placed
// by — puts on it (broadcast ones, rules and the ID counters on every
// shard) and, with a log, checkpoints them. Runs under the inter-shard
// channel (excluding broadcasts and cross-shard commits) and every
// shard's writer latch (excluding routed mutations), so nothing can be
// acknowledged into a core this swap replaces — a commit concurrent with
// Restore either completes before the swap and is replaced with the rest
// of the old state, or waits and lands in the restored state. The stream
// is read under them too, so a routed write waits out an upload's
// transfer as well as its load, rather than being acknowledged and then
// replaced.
//
// A bad snapshot changes nothing: every shard's part is loaded before any
// is installed, and a stream that fails anywhere — its decoding, its
// checksum, a limit on its size, an op the loader rejects — fails the
// call with ErrBadSnapshot while memory and disk still hold the previous
// state on every shard. The install itself is per directory, so a
// checkpoint I/O fault during it can still stop with some shards restored
// and others not (the error names the shard); closing that needs a
// deployment-level commit record.
func (s *Store) Restore(src persist.Source) error {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for k := range s.smu {
		s.smu[k].Lock()
		defer s.smu[k].Unlock()
	}
	staged, err := s.stage(src)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if err := s.eachShard(func(k int) error { return s.pipes[k].Install(staged[k]) }); err != nil {
		return err
	}
	s.advanceIDs()
	return nil
}

// feedDepth is how many ops the walk of a snapshot may run ahead of a
// shard's staging session.
const feedDepth = 64

// errStopped ends the walk of a snapshot once a shard's session has
// failed: what is left of the stream cannot make the restore succeed.
var errStopped = errors.New("shard: restore stopped")

// stage loads src into one fresh store per shard, each holding what route
// places on it, and installs nothing. src is walked once, here, on the
// caller's goroutine, and each op is handed to its shard's staging
// session — a goroutine running its own Batch, fed through a channel — or,
// broadcast, to every shard's; the tail (rules, ID counters) goes to every
// session once the walk is done. So the decode and the apply overlap, over
// one shard as over several, the sessions build in parallel, nothing holds
// more of the snapshot than the ops in flight, and the first failure, the
// walk's or a session's, stops them all. The error is the walk's, or the
// lowest failed shard's, tagged when there is more than one shard.
func (s *Store) stage(src persist.Source) ([]*core.Store, error) {
	staged := make([]*core.Store, s.NumShards())
	errs := make([]error, s.NumShards())
	feeds := make([]chan persist.Op, s.NumShards())
	end := new(walkEnd)
	stop := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for k := range feeds {
		feeds[k] = make(chan persist.Op, feedDepth)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if staged[k], errs[k] = s.pipes[k].Stage(feed{feeds[k], end}); errs[k] != nil {
				once.Do(func() { close(stop) })
			}
		}()
	}
	send := func(k int, op persist.Op) error {
		select {
		case feeds[k] <- op:
			return nil
		case <-stop:
			return errStopped
		}
	}
	end.tail, end.err = src.Each(func(op persist.Op) error {
		key, all, err := route(op)
		switch {
		case err != nil:
			return err
		case !all:
			return send(s.router.ShardOfKey(key), op)
		}
		for k := range feeds {
			if err := send(k, op); err != nil {
				return err
			}
		}
		return nil
	})
	walkErr := end.err
	if walkErr != nil {
		end.err = errStopped
	}
	for _, f := range feeds {
		close(f)
	}
	wg.Wait()
	if walkErr != nil && !errors.Is(walkErr, errStopped) {
		return nil, walkErr
	}
	for k, err := range errs {
		switch {
		case err == nil || errors.Is(err, errStopped):
		case s.NumShards() == 1:
			return nil, err
		default:
			return nil, tag(k, err)
		}
	}
	return staged, nil
}

// feed is one shard's part of a snapshot walked by stage: the ops on ops,
// and, once ops is closed, the walk's end.
type feed struct {
	ops <-chan persist.Op
	end *walkEnd
}

// walkEnd is how the walk of a snapshot ended: its tail, or errStopped
// when it failed. It is set before the feeds close.
type walkEnd struct {
	tail persist.Tail
	err  error
}

func (f feed) Each(apply func(persist.Op) error) (persist.Tail, error) {
	for op := range f.ops {
		if err := apply(op); err != nil {
			return persist.Tail{}, err
		}
	}
	return f.end.tail, f.end.err
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

// perShard collects one list from each view of the set.
func perShard[T any](vs Views, list func(*core.View) []T) [][]T {
	lists := make([][]T, len(vs))
	for k, v := range vs {
		lists[k] = list(v)
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
