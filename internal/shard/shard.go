// Package shard runs N independent Graphitti writer pipelines behind one
// router, so commits to disjoint coordinate domains spend separate cores
// instead of funnelling through a single serialized writer.
//
// Placement. Every mutation is one persist.Op, a live commit included
// (Commit is Apply of persist.CommitOp), and route — the only per-kind
// table in this package — says where an op goes: to the shard a stable
// key hashes to (core.Router, FNV-1a) or to every shard. Apply places
// live ops by it and Restore the entries of a snapshot, reading the same
// dumps, so there is no second rule for the two to disagree on; a mark's
// key is computed once (routeKey). Domain-keyed placement
// keeps the propagation engine exact without cross-shard evaluation:
// SUB_X overlap is intra-domain, co-registration is intra-system, and
// shared-referent hops are intra-shard because identical marks always
// route identically. Ontologies and propagation rules are broadcast to
// every shard (shard 0 first), so ontology-closure propagation and rule
// recomputation see the same rule set everywhere.
//
// The sequenced inter-shard channel. Broadcasts and cross-shard commits
// (an annotation whose marks span shards) serialize through one global
// mutex with a monotone sequence number — the bounded fallback the
// design allows instead of asynchronous delta shipping. A cross-shard
// annotation commits whole to its home shard (no dangling references, no
// partial visibility), interval trees for its other domains included, so
// a read by domain (Views.ReferentsAt, and Views.Stats' union of interval
// domains) asks every shard, not the domain's owner alone. The
// completeness bound is that its marks dedup per-shard rather than
// globally, and derived facts pairing it with referents homed elsewhere
// are not materialized. Reusing an already-committed referent is
// stricter: a committed referent homed on a shard other than the
// annotation's home shard is refused up front with ErrCrossShardReferent
// (the home shard cannot validate or link a referent it does not hold) —
// re-mark the location, or keep shared referents within one routing
// domain. Workloads that keep each annotation's marks in one routing
// domain — the paper's studies all do — get semantics identical to the
// unsharded store, which the differential export test asserts
// byte-for-byte.
//
// IDs. All shards share one core.AtomicIDs allocator, so annotation and
// referent IDs are globally unique and merged reads can order by ID.
// A read is a method of Views — one view per shard, pinned together — and
// merges the per-shard answers deterministically in ID order.
//
// Pipelines. A shard is one durable.Store — a core store plus an optional
// log — and the set holds one slice of them: New builds pipelines without
// a log, Open pipelines over a directory, Single adopts one that already
// exists. An unsharded deployment is the set of one; nothing in this
// package asks which kind it holds except Durable, which reports it.
//
// Durability. Each pipeline opened over a directory owns a WAL segment,
// a snapshot chain and a degradation state machine. One rule places
// them, read off the disk: SHARDS.json present means pipelines under
// dir/shard-<k>/ with the count it records; absent means one pipeline at
// the directory root (see Open). Recovery replays all shards in
// parallel. A degraded shard refuses its own writes — wrapped in *Error
// so callers can name the shard — while healthy shards keep accepting
// theirs.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
)

// shardsFile pins the shard count of a durable data directory; opening
// with a different count would scatter routing keys across the wrong
// WALs.
const shardsFile = "SHARDS.json"

type shardsManifest struct {
	Shards int `json:"shards"`
}

// Error tags a failed shard operation with the shard that refused it, so
// a partially degraded deployment can name the broken pipeline while the
// rest keep writing. Unwrap exposes the underlying error (errors.Is with
// durable.ErrDegraded keeps working).
type Error struct {
	Shard int
	Err   error
}

func (e *Error) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

// ErrCrossShardReferent rejects an annotation that reuses a committed
// referent homed on a different shard than the annotation's own home
// shard (its first mark's): the home shard's core cannot validate or
// link a referent it does not hold. Re-mark the location instead of
// reusing the committed referent, or keep shared referents within one
// routing domain so they co-home.
var ErrCrossShardReferent = errors.New("shard: committed referent homed on another shard")

// Store is a shard set: N ≥ 1 independent writer pipelines behind a
// router. All methods are safe for concurrent use.
type Store struct {
	router core.Router
	ids    *core.AtomicIDs

	// pipes holds one pipeline per shard. Each swaps its own core store
	// under readers (Restore, Reopen); the slice itself never changes.
	pipes []*durable.Store

	// gmu is the sequenced inter-shard channel: broadcasts (ontologies,
	// rules) and cross-shard commits serialize through it, stamped by
	// gseq. Routed single-shard mutations never take it.
	gmu   sync.Mutex
	gseq  atomic.Uint64
	cross atomic.Uint64

	// smu is the per-shard writer latch: every routed mutation holds its
	// shard's latch in read mode across load-and-apply, and Restore holds
	// all of them in write mode across its core-pointer swap, so a
	// mutation can never be acknowledged into a core the swap has already
	// replaced. Broadcasts don't need it — they serialize against Restore
	// through gmu. Read acquisition is uncontended outside a restore.
	smu []sync.RWMutex

	// load profiles every routed mutation: per-shard busy time and a
	// top-K sketch of routing keys (see load.go).
	load *loadProfile
}

// newStore returns a set of n shards with its pipelines still to fill.
func newStore(n int) *Store {
	return &Store{router: core.Router{Shards: n}, ids: &core.AtomicIDs{},
		pipes: make([]*durable.Store, n), smu: make([]sync.RWMutex, n), load: newLoadProfile(n)}
}

// storeOptions are shard k's core options: its metrics label and the
// set's shared ID source.
func (s *Store) storeOptions(k int) core.StoreOptions {
	return core.StoreOptions{Shard: strconv.Itoa(k), IDs: s.ids}
}

// New returns a shard set of n pipelines without a log (n < 1 is
// treated as 1).
func New(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := newStore(n)
	for k := range s.pipes {
		so := s.storeOptions(k)
		s.pipes[k] = durable.Memory(core.NewStoreWithOptions(so), so)
	}
	return s
}

// Single puts one existing pipeline — opened over a directory, or
// durable.Memory over a core store — behind a shard set of one. The
// pipeline keeps the ID source it was built with.
func Single(p *durable.Store) *Store {
	s := newStore(1)
	s.pipes[0] = p
	return s
}

// Open opens (or initialises) a shard set over dir, replaying all shard
// WALs in parallel. What is on disk decides the layout, and Open
// migrates nothing:
//
//   - SHARDS.json present: pipelines under dir/shard-<k>/, as many as it
//     records. n must be 0 (adopt) or that count — opening with another
//     would scatter routing keys across the wrong WALs.
//   - SHARDS.json absent: one pipeline at the directory root, the layout
//     durable.Open writes. n ≤ 1 opens (or starts) it. n ≥ 2 starts a
//     sharded directory — manifest first — only where no store exists
//     yet; over a root-layout store it is refused with the directory
//     untouched.
//   - shard-<k>/ directories without SHARDS.json are a sharded store
//     whose manifest was lost: refused for every n, since re-pinning a
//     guessed count would hide or mis-route their data.
func Open(dir string, n int, opts durable.Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	recorded, err := readShardsFile(dir)
	if err != nil {
		return nil, err
	}
	dirs := []string{dir}
	switch {
	case recorded != 0:
		if n != 0 && n != recorded {
			return nil, fmt.Errorf("shard: directory %s has %d shards, asked to open %d", dir, recorded, n)
		}
		dirs = shardDirs(dir, recorded)
	case hasShardDirs(dir):
		return nil, fmt.Errorf("shard: directory %s has shard-* directories but no %s; restore the manifest with the original shard count instead of re-initialising", dir, shardsFile)
	case n <= 1:
		// The root layout, whether a store is there yet or not.
	case durable.HasStore(dir):
		return nil, fmt.Errorf("shard: directory %s holds a one-pipeline store at its root, asked to open %d shards; open it with one, or migrate it via snapshot export/restore", dir, n)
	default:
		// Record the count before any shard writes.
		if err := writeShardsFile(dir, n); err != nil {
			return nil, err
		}
		dirs = shardDirs(dir, n)
	}

	s := newStore(len(dirs))
	err = s.eachShard(func(k int) error {
		o := opts
		o.Store = s.storeOptions(k)
		var err error
		s.pipes[k], err = durable.Open(dirs[k], o)
		return err
	})
	if err != nil {
		for _, p := range s.pipes {
			if p != nil {
				_ = p.Close()
			}
		}
		return nil, err
	}
	s.advanceIDs()
	return s, nil
}

// eachShard runs fn for every shard in parallel and returns the lowest
// shard's error, tagged with its ID.
func (s *Store) eachShard(fn func(k int) error) error {
	errs := make([]error, s.NumShards())
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return tag(k, err)
		}
	}
	return nil
}

func shardDirs(dir string, n int) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = filepath.Join(dir, fmt.Sprintf("shard-%d", k))
	}
	return out
}

func readShardsFile(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardsFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var m shardsManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("shard: corrupt %s: %w", shardsFile, err)
	}
	if m.Shards < 1 {
		return 0, fmt.Errorf("shard: %s records %d shards", shardsFile, m.Shards)
	}
	return m.Shards, nil
}

// hasShardDirs reports whether dir holds shard-<k> subdirectories.
func hasShardDirs(dir string) bool {
	entries, _ := os.ReadDir(dir) // unreadable: the pipeline's own open reports it
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			return true
		}
	}
	return false
}

func writeShardsFile(dir string, n int) error {
	data, err := json.Marshal(shardsManifest{Shards: n})
	if err != nil {
		return err
	}
	// tmp → fsync → rename → fsync(dir): the manifest is what makes
	// shard-<k>/ data discoverable, so it must survive a crash as
	// reliably as the data it names.
	tmp := filepath.Join(dir, shardsFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, shardsFile)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// advanceIDs raises the shared allocator past every ID any shard has
// assigned (the recovery path: replay pins IDs without allocating).
func (s *Store) advanceIDs() {
	var maxAnn, maxRef uint64
	for _, v := range s.Views() {
		na, nr := v.IDCounters()
		if na > maxAnn {
			maxAnn = na
		}
		if nr > maxRef {
			maxRef = nr
		}
	}
	s.ids.Advance(maxAnn, maxRef)
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return s.router.Shards }

// Durable reports whether the pipelines log to a directory.
func (s *Store) Durable() bool { return s.pipes[0].Dir() != "" }

// DeltaSeq returns the sequence number of the inter-shard channel: the
// count of broadcasts and cross-shard commits sequenced so far.
func (s *Store) DeltaSeq() uint64 { return s.gseq.Load() }

// CrossShardCommits counts annotations whose marks spanned shards and
// were serialized through the inter-shard channel.
func (s *Store) CrossShardCommits() uint64 { return s.cross.Load() }

// shardCore returns shard k's current core store.
func (s *Store) shardCore(k int) *core.Store { return s.pipes[k].Core() }

// tag wraps a shard's error with its shard ID; nil stays nil.
func tag(k int, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Shard: k, Err: err}
}

// mutate applies one routed mutation to shard k under the shard's
// writer latch (see smu), tagging any error with the shard ID. key is
// the routing key that placed the mutation here; it feeds the shard's
// load profile along with the mutation's busy time ("" records time
// but no key).
func (s *Store) mutate(k int, key string, fn func(p *durable.Store) error) error {
	s.smu[k].RLock()
	defer s.smu[k].RUnlock()
	start := time.Now()
	err := fn(s.pipes[k])
	s.load.record(k, key, time.Since(start))
	return tag(k, err)
}

// broadcast applies one mutation to every shard, shard 0 first, under
// the sequenced inter-shard channel. A real failure on one shard stops
// the walk (later shards are not touched), but an "already applied"
// answer — duplicate registration, duplicate rule, rule already gone —
// is skipped and remembered instead: a crash between the per-shard
// applications of one broadcast leaves it on a prefix of the shards,
// and re-issuing it after recovery must converge the rest rather than
// abort on the shards that already have it. Only if EVERY shard
// reports already-applied is that error returned, which is exactly the
// answer an unsharded store gives to a true duplicate.
func (s *Store) broadcast(fn func(k int) error) error {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	s.gseq.Add(1)
	var dup error
	dups := 0
	for k := 0; k < s.NumShards(); k++ {
		err := fn(k)
		switch {
		case err == nil:
		case errors.Is(err, core.ErrDuplicate),
			errors.Is(err, prop.ErrDuplicateRule),
			errors.Is(err, prop.ErrNoSuchRule):
			dup, dups = tag(k, err), dups+1
		default:
			return tag(k, err)
		}
	}
	if dups == s.NumShards() {
		return dup
	}
	return nil
}

// AddRule broadcasts a propagation rule to every shard, so each shard's
// engine derives over its own annotations with the full rule set.
func (s *Store) AddRule(r prop.Rule) error { return s.Apply(persist.RuleOp(r)) }

// DeleteRule broadcasts a rule deletion to every shard.
func (s *Store) DeleteRule(id string) error {
	return s.Apply(persist.Op{Kind: core.OpDeleteRule, RuleID: id})
}

// Apply places one op by route and applies it there: on every shard for a
// broadcast op, otherwise on the one its key hashes to (a commit on its
// home shard, see commit). It is the entry point for every mutation
// without a method of its own here — registrations, record tables and
// rows (persist has a constructor for each). Each pipeline rebuilds what
// the op registers from the op's dump, so no two shards, and no shard and
// the caller, share an object.
func (s *Store) Apply(op persist.Op) error {
	key, all, err := route(op)
	switch {
	case err != nil:
		return err
	case all:
		return s.broadcast(func(k int) error { return s.pipes[k].Apply(op) })
	case op.Kind == core.OpDeleteAnnotation:
		return s.DeleteAnnotation(op.DeleteID) // placed by where the annotation is; no key says
	case op.Kind == core.OpCommitAnnotation:
		_, err := s.commit(op)
		return err
	}
	return s.mutate(s.router.ShardOfKey(key), key, func(p *durable.Store) error { return p.Apply(op) })
}

// route is the placement rule: the key an op is placed by, or broadcast.
// Sequences go by coordinate domain, so all sequences of one domain and
// every interval mark in it share a shard; coordinate systems by name and
// images by their system; alignments, trees and interaction graphs by ID;
// record tables and their rows by table name; annotations by their first
// mark (annotationKey). A hollow op routes by the empty key, and the
// pipeline it lands on refuses it.
func route(op persist.Op) (key string, broadcast bool, err error) {
	switch op.Kind {
	case core.OpRegisterOntology, core.OpAddRule, core.OpDeleteRule:
		return "", true, nil
	case core.OpRegisterSystem:
		key = val(op.System).Name
	case core.OpRegisterSequence:
		if key = val(op.Sequence).Domain; key == "" {
			key = val(op.Sequence).ID // core adopts the ID as the domain
		}
	case core.OpRegisterAlignment:
		key = val(op.Alignment).ID
	case core.OpRegisterTree:
		key = val(op.Tree).ID
	case core.OpRegisterInteractionGraph:
		key = val(op.Graph).ID
	case core.OpRegisterImage:
		key = val(op.Image).System
	case core.OpCreateRecordTable:
		key = val(op.Table).Name
	case core.OpInsertRecord:
		key = op.RecTable
	case core.OpCommitAnnotation:
		key = annotationKey(val(op.Annotation))
	case core.OpDeleteAnnotation:
		// The owner shard is found by probing (DeleteAnnotation).
	default:
		return "", false, fmt.Errorf("shard: no route for op kind %d", op.Kind)
	}
	return key, false, nil
}

// val is *p, or the zero value for the nil dump of a hollow op.
func val[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// annotationKey is the key an annotation is placed by: its first mark's,
// else its first term's ontology — a term-only annotation has no spatial
// affinity, and every shard holds every ontology, so the hash only
// spreads load.
func annotationKey(d persist.AnnotationDump) string {
	switch {
	case len(d.Referents) > 0:
		return routeKey(d.Referents[0])
	case len(d.Terms) > 0:
		return d.Terms[0].Ontology
	}
	return ""
}

// routeKey is the key a mark is placed by: its coordinate domain (so
// SUB_X overlap and co-registration propagation stay intra-shard), or the
// object ID for a whole-object mark, whose domain — the object type — is
// too coarse to spread load. Identical marks have identical keys, so
// per-shard mark dedup is exactly the unsharded dedup.
func routeKey(d persist.ReferentDump) string {
	if core.ReferentKind(d.Kind) == core.ObjectReferent || d.Domain == "" {
		return d.ObjectID
	}
	return d.Domain
}

// NewAnnotation starts a store-free builder; Commit picks the shard from
// the attached marks.
func (s *Store) NewAnnotation() *core.Builder { return core.NewBuilder() }

// Commit commits the annotation b assembles: Apply of its op.
func (s *Store) Commit(b *core.Builder) (*core.Annotation, error) {
	op, err := persist.CommitOp(b)
	if err != nil {
		return nil, err
	}
	return s.commit(op)
}

// commit places a commit op on its home shard and applies it there: the
// one path of Commit and of Apply's commit case. An annotation whose marks
// span shards serializes through the inter-shard channel and still commits
// whole to the home shard (see the package comment).
func (s *Store) commit(op persist.Op) (*core.Annotation, error) {
	rsp := op.Span().StartChild("router")
	home, span, key, err := s.place(val(op.Annotation))
	rsp.Finish()
	if err != nil {
		return nil, err
	}
	rsp.SetAttrInt("home", int64(home))
	rsp.SetAttrInt("span", int64(span))
	rsp.SetAttr("key", key)
	if span > 1 {
		s.gmu.Lock()
		defer s.gmu.Unlock()
		s.gseq.Add(1)
		s.cross.Add(1)
	}
	// The "shard.writer" span covers the per-shard pipeline end to end —
	// latch, core commit, WAL ack; the layers below hang theirs off it.
	wsp := op.Span().StartChild("shard.writer")
	wsp.SetShard(home)
	defer wsp.Finish()
	var ann *core.Annotation
	err = s.mutate(home, key, func(p *durable.Store) (err error) {
		ann, err = p.Run(op.WithSpan(wsp))
		return err
	})
	return ann, err
}

// place resolves a commit's home shard (its first mark's), how many shards
// its marks touch, and route's key, which the load profile attributes it
// to. In a live op (annotation ID 0) a referent ID names a committed
// referent to reuse: it counts where it is held, which must be the home
// shard — its core validates and links it — or the op is refused naming
// the owner, not answered "no such referent" by a shard that cannot see it.
func (s *Store) place(d persist.AnnotationDump) (home, span int, key string, err error) {
	key = annotationKey(d)
	home = s.router.ShardOfKey(key)
	var buf [8]int
	touched := buf[:0]
	var vs Views // pinned once, on the first reused referent
	for i, rd := range d.Referents {
		k := s.router.ShardOfKey(routeKey(rd))
		reused := d.ID == 0 && rd.ID != 0
		if reused {
			if vs == nil {
				vs = s.Views()
			}
			var ok bool
			if k, ok = vs.ownerOfReferent(rd.ID); !ok {
				return 0, 0, "", fmt.Errorf("%w: %d", core.ErrNoSuchReferent, rd.ID)
			}
		}
		if i == 0 {
			home = k
		}
		if reused && k != home {
			return 0, 0, "", fmt.Errorf("%w: referent %d is homed on shard %d, annotation on shard %d", ErrCrossShardReferent, rd.ID, k, home)
		}
		if !slices.Contains(touched, k) {
			touched = append(touched, k)
		}
	}
	return home, max(len(touched), 1), key, nil
}

// DeleteAnnotation routes the deletion to the annotation's owner shard.
func (s *Store) DeleteAnnotation(id uint64) error {
	k, ok := s.Views().ownerOfAnnotation(id)
	if !ok {
		return fmt.Errorf("%w: %d", core.ErrNoSuchAnnotation, id)
	}
	return s.mutate(k, "", func(p *durable.Store) error { return p.DeleteAnnotation(id) })
}

// Close closes every shard; the first error is reported, but all shards
// are closed regardless.
func (s *Store) Close() error {
	var firstErr error
	for k, p := range s.pipes {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = tag(k, err)
		}
	}
	return firstErr
}
