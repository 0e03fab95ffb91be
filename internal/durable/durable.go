// Package durable wraps core.Store with crash safety: every mutation is
// encoded as one write-ahead-log record and fdatasynced (group-committed
// across concurrent writers) before the call returns, so an acknowledged
// write survives a kill -9.
//
// # On-disk layout
//
// A data directory holds three files:
//
//	graphitti-<seq>.snap  persist snapshot — the checkpoint (absent
//	                      until the first compaction)
//	graphitti.wal         write-ahead log of mutations since the checkpoint
//	MANIFEST.json         {snapshotSeq, snapshot}: which checkpoint file is
//	                      current and the op sequence it covers — its atomic
//	                      rename is the compaction commit point
//
// Each WAL payload is a JSON op envelope: its global sequence number and
// one persist.Op (the same per-entity codec Export/Load use). Open loads
// the snapshot, replays WAL records with Seq beyond the manifest's
// snapshotSeq, truncates a torn tail instead of failing, and resumes
// appending.
//
// # Compaction
//
// Once the log crosses Options.CompactThreshold bytes, the store writes a
// fresh snapshot + manifest (tmp file, fdatasync, atomic rename) and
// rotates to an empty log. A crash at any point between those steps is
// safe: replay skips records the manifest says the snapshot already
// covers, so a stale log over a new snapshot only costs skipped records.
//
// # Semantics
//
// A pipeline's state is a function of its ops. Apply(op) is the one entry
// point: the live mutation is op.Apply, the call replay makes, on a dump —
// so the pipeline builds its own copy of what it registers, and nothing
// the caller does to the original afterwards is served here and missing
// after a restart. The package orders, logs and acknowledges ops without
// looking inside them. Commit and AddRule alone apply something other
// than the op they log: the live builder, whose IDs the store assigns,
// and the live rule.
//
// Mutations apply to the in-memory store first (so invalid operations are
// rejected before they reach the log), then append under the same
// ordering lock, then wait for durability outside it — group commit. A
// WAL I/O error is sticky: the in-memory store may be ahead of the log,
// so every later mutation fails rather than widening the divergence.
//
// # Degradation and recovery
//
// A disk fault moves the store through an explicit state machine:
//
//	healthy ──(log I/O error, unloggable op,
//	           failed log rotation)──▶ degraded ──(Reopen)──▶ healthy
//	   │                                  │
//	   └────────────(Close)───────────────┴──(Close)──▶ closed
//
// Degraded is read-only: reads through Core() keep serving the state
// that existed at the fault, every mutation fails fast with ErrDegraded,
// and no acknowledgement is ever issued for a record whose fdatasync
// failed (the WAL writer poisons itself first — the fsyncgate rule).
// Health reports the state; Reopen recovers by discarding the
// in-memory state (which may be ahead of the log by applied-but-unacked
// ops), re-validating the data directory exactly as Open does, and
// probing the log with a durable append before accepting writes again.
// A compaction that fails before touching the live log (snapshot or
// manifest write) does not degrade: the previous checkpoint, manifest,
// and log remain the loadable truth and the store stays writable.
//
// # Without a log
//
// A Store is one writer pipeline: a core store plus an optional log.
// Memory builds the pipeline without one — no directory, no WAL, no
// durability metrics. Every mutation applies under the same ordering
// lock and returns; Install swaps without a checkpoint; Reopen, Compact
// and Sync have nothing to do; nothing can degrade it. "No log" is
// decided here and nowhere above: internal/shard holds one slice of
// Stores and internal/httpapi one shard set, whether or not a directory
// is behind them.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/faultfs"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/rtree"
	"graphitti/internal/trace"
	"graphitti/internal/wal"
)

const (
	snapPattern  = "graphitti-*.snap"
	logFile      = "graphitti.wal"
	manifestFile = "MANIFEST.json"
)

// snapName returns the checkpoint file name for an op sequence.
func snapName(seq uint64) string { return fmt.Sprintf("graphitti-%016d.snap", seq) }

// HasStore reports whether dir already holds durable-store state — a
// WAL, manifest, or checkpoint file. Callers laying out a different
// store format over the same path (e.g. a sharded layout) use it to
// refuse rather than silently ignore the existing data.
func HasStore(dir string) bool {
	for _, name := range []string{logFile, manifestFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPattern))
	return len(snaps) > 0
}

// maxRecordSize mirrors the WAL's frame bound; checked before a sequence
// number is consumed so an oversize op cannot leave a seq gap.
const maxRecordSize = wal.MaxRecordSize

// DefaultCompactThreshold is the log size that triggers compaction when
// Options.CompactThreshold is zero.
const DefaultCompactThreshold = 8 << 20

// Options tune a durable store.
type Options struct {
	// CompactThreshold is the WAL size in bytes beyond which a mutation
	// triggers snapshot compaction; 0 means DefaultCompactThreshold, a
	// negative value disables compaction.
	CompactThreshold int64
	// NoSync skips fdatasync on the log — crash safety is lost; for
	// benchmarks contrasting group commit against raw logging only.
	NoSync bool
	// Inject, when non-nil, is consulted before every file operation the
	// store and its WAL perform, and can fail it — the fault-injection
	// hook the robustness harness drives. Nil injects nothing.
	Inject faultfs.Injector
	// Store configures the wrapped core store: the shard label for
	// metrics and the shared ID source of a sharded deployment. The zero
	// value is the unsharded store.
	Store core.StoreOptions
}

// State is the store's position in the degradation state machine.
type State uint8

const (
	// StateHealthy accepts reads and writes.
	StateHealthy State = iota
	// StateDegraded serves reads only; mutations fail with ErrDegraded
	// until Reopen succeeds.
	StateDegraded
	// StateClosed is terminal: Close was called.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MarshalText makes the state render as its name in JSON payloads.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name — the MarshalText inverse, so Stats
// round-trips through JSON (clients of /api/stats decode it).
func (s *State) UnmarshalText(b []byte) error {
	switch string(b) {
	case "healthy":
		*s = StateHealthy
	case "degraded":
		*s = StateDegraded
	case "closed":
		*s = StateClosed
	default:
		return fmt.Errorf("durable: unknown state %q", b)
	}
	return nil
}

// Health reports the state machine's position and, when degraded, the
// fault that got it there.
type Health struct {
	State State `json:"state"`
	// Reason is the first fault observed (empty while healthy).
	Reason string `json:"reason,omitempty"`
}

// ErrDegraded is wrapped into every mutation refused because the store
// is degraded; reads keep working, and Reopen recovers.
var ErrDegraded = errors.New("durable: store degraded, writes refused")

// manifest is the tiny metadata file naming the current checkpoint; its
// atomic rename is the single commit point of a compaction, so a crash
// anywhere around it leaves either the old (snapshot, seq) pair or the
// new one — never a new snapshot with a stale seq.
type manifest struct {
	// SnapshotSeq is the last op sequence the snapshot includes; WAL
	// records at or below it are skipped on replay.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// Snapshot is the checkpoint file name (empty until the first
	// checkpoint).
	Snapshot string `json:"snapshot,omitempty"`
}

// record is the WAL payload: one op, tagged with its sequence number. The
// embedded op flattens into the same JSON object, so the bytes are what
// they were when the fields were declared here.
type record struct {
	Seq uint64 `json:"seq"`
	persist.Op
}

// Stats describes the durability machinery (the wrapped store's own
// Stats() remain available via Core()).
type Stats struct {
	// Seq is the sequence number of the latest applied mutation.
	Seq uint64
	// SnapshotSeq is the op sequence covered by the on-disk checkpoint.
	SnapshotSeq uint64
	// Compactions counts snapshot+rotate cycles since open.
	Compactions uint64
	// ReplayedRecords is how many WAL records open applied.
	ReplayedRecords int
	// SkippedRecords is how many WAL records open skipped because the
	// checkpoint already covered them.
	SkippedRecords int
	// TornBytes is the torn tail truncated at open (0 = clean shutdown).
	TornBytes int64
	// LogSize and CompactThreshold describe the live log.
	LogSize          int64
	CompactThreshold int64
	// CompactFailures counts automatic compactions that failed after a
	// durably committed mutation (the mutation itself succeeded);
	// LastCompactError is the most recent such failure.
	CompactFailures  uint64
	LastCompactError string `json:",omitempty"`
	// Health is the degradation state machine's position.
	Health Health
	// Reopens counts successful recoveries from the degraded state.
	Reopens uint64
	// WAL is the group-commit writer's counters.
	WAL wal.Stats
}

// Store is one writer pipeline over a core.Store: crash-safe when it was
// opened over a directory, a plain serialized writer when built by
// Memory. Reads go straight to Core(); every mutation goes through
// logApply, which logs (when there is a log) before acknowledging. All
// methods are safe for concurrent use.
type Store struct {
	// dir is "" for a pipeline without a log (Memory): w and m stay nil,
	// and every method below that would touch either returns first.
	dir  string
	opts Options

	// mu orders mutations: apply and log-enqueue happen under it, the
	// durability wait does not (group commit).
	mu     sync.Mutex
	w      *wal.Writer
	closed bool

	// core is swapped wholesale by Restore while readers keep calling
	// Core(), hence the atomic pointer. Mutations still serialize on mu.
	core atomic.Pointer[core.Store]

	// degradeErr latches the degraded state: set on the first fault that
	// leaves memory possibly ahead of the log (a flush error, an
	// unloggable op, a failed rotation). All further mutations are
	// refused with ErrDegraded until Reopen clears it.
	degradeErr error

	seq             uint64
	snapshotSeq     uint64
	compactions     uint64
	compactFailures uint64
	lastCompactErr  string
	reopens         uint64
	replayed        int
	skipped         int
	tornBytes       int64

	// m binds the shard-labelled durability metric children ("0" when
	// unsharded); set at construction from opts.Store.Shard.
	m *durableMetrics
}

// Open loads (or initialises) a durable store in dir, replaying any WAL
// the previous run left behind. The directory is created if missing.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, m: metricsForShard(opts.Store.Shard)}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.m.setHealthGauge(StateHealthy)
	s.m.seq.Set(int64(s.seq))
	return s, nil
}

// Memory returns a pipeline without a log over cs. so are the options cs
// was built with: Stage builds a restore's replacement store with them.
func Memory(cs *core.Store, so core.StoreOptions) *Store {
	s := &Store{opts: Options{Store: so}}
	s.core.Store(cs)
	return s
}

// load validates and reads the data directory into s (a fresh Store):
// manifest, snapshot, WAL replay, then an appending writer over the
// valid log prefix. Open calls it once; Reopen calls it on a scratch
// Store to re-validate the directory after a fault before swapping the
// result in.
func (s *Store) load() error {
	var man manifest
	if data, err := os.ReadFile(filepath.Join(s.dir, manifestFile)); err == nil {
		if err := json.Unmarshal(data, &man); err != nil {
			return fmt.Errorf("durable: corrupt manifest: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	s.snapshotSeq = man.SnapshotSeq
	s.seq = man.SnapshotSeq

	switch {
	case man.Snapshot != "":
		f, err := os.Open(filepath.Join(s.dir, man.Snapshot))
		if err != nil {
			// The manifest committed to a checkpoint; its absence is data
			// loss, not a fresh directory.
			return fmt.Errorf("durable: manifest names snapshot %s: %w", man.Snapshot, err)
		}
		cs, lerr := persist.ReadWith(f, s.opts.Store)
		f.Close()
		if lerr != nil {
			return fmt.Errorf("durable: load snapshot: %w", lerr)
		}
		s.core.Store(cs)
	case man.SnapshotSeq != 0:
		return fmt.Errorf("durable: manifest claims checkpoint at seq %d but names no snapshot", man.SnapshotSeq)
	default:
		s.core.Store(core.NewStoreWithOptions(s.opts.Store))
	}
	s.removeStaleSnapshots(man.Snapshot)

	logPath := filepath.Join(s.dir, logFile)
	info, err := wal.Scan(logPath, s.replayRecord)
	switch {
	case err == nil:
		s.tornBytes = info.TornBytes
		s.w, err = wal.OpenAt(logPath, info.ValidSize, s.walOptions())
		if err != nil {
			return err
		}
	case errors.Is(err, os.ErrNotExist) || errors.Is(err, wal.ErrBadHeader):
		// No log, or a log whose very header was torn: start a fresh one.
		// Header-torn logs can hold no durable (acknowledged) records.
		s.w, err = wal.Create(logPath, s.walOptions())
		if err != nil {
			return err
		}
	default:
		return err
	}
	return nil
}

// walOptions derives the WAL writer options from the store's own.
func (s *Store) walOptions() wal.Options {
	return wal.Options{NoSync: s.opts.NoSync, Inject: s.opts.Inject, Shard: s.opts.Store.Shard}
}

// replayRecord applies one scanned WAL payload during Open.
func (s *Store) replayRecord(payload []byte) error {
	if len(payload) == 0 {
		return nil // Sync marker
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("durable: undecodable WAL record after seq %d: %w", s.seq, err)
	}
	if rec.Seq <= s.snapshotSeq {
		s.skipped++ // checkpoint already covers it (stale log after compaction crash)
		return nil
	}
	if rec.Seq != s.seq+1 {
		return fmt.Errorf("durable: WAL record seq %d after %d (log out of order)", rec.Seq, s.seq)
	}
	if err := rec.Apply(s.Core()); err != nil {
		return fmt.Errorf("durable: replay op %d (%s): %w", rec.Seq, rec.Kind, err)
	}
	s.seq = rec.Seq
	s.replayed++
	return nil
}

// removeStaleSnapshots best-effort deletes checkpoint files a crashed
// compaction left uncommitted (and the legacy file once a named one
// exists). Failures are ignored: stale files cost disk, not correctness.
func (s *Store) removeStaleSnapshots(current string) {
	if current == "" {
		return
	}
	matches, _ := filepath.Glob(filepath.Join(s.dir, snapPattern))
	for _, m := range matches {
		if filepath.Base(m) == current {
			continue
		}
		// rawfileop contract: even best-effort deletes consult the
		// injector, so the harness sees (and can fail) every file op the
		// durability path performs. An injected failure leaves the stale
		// file behind, exactly like a real unlink error would.
		if faultfs.Check(s.opts.Inject, faultfs.OpRemove, m) != nil {
			continue
		}
		_ = os.Remove(m)
	}
}

// Core returns the wrapped store for reads and queries. Mutating it
// directly bypasses the log; use Apply and the Store's other mutators.
func (s *Store) Core() *core.Store { return s.core.Load() }

// Dir returns the data directory ("" for a pipeline without a log).
func (s *Store) Dir() string { return s.dir }

// logApply runs one mutation: applyFn mutates the core store (and, for a
// commit, fills rec's dump); on success the envelope is sequenced and
// enqueued while still holding the ordering lock, then the caller waits
// for the group-committed fdatasync outside it. A non-nil sp rides the
// WAL append, so the flusher attaches the shared "wal.flush" span (batch
// ID included) to it before the ack fires.
func (s *Store) logApply(rec *record, sp *trace.Span, applyFn func(cs *core.Store) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return wal.ErrClosed
	}
	if s.dir == "" {
		err := applyFn(s.Core())
		s.mu.Unlock()
		return err
	}
	// Refuse BEFORE mutating when the store is degraded (a sticky flush
	// error, a failed rotation that left the log closed, or an earlier
	// unloggable op): applying first would leave reader-visible state
	// that vanishes on restart.
	if s.degradeErr != nil {
		err := fmt.Errorf("%w: %v", ErrDegraded, s.degradeErr)
		s.mu.Unlock()
		return err
	}
	if err := s.w.Err(); err != nil {
		// The WAL writer poisoned itself asynchronously (another op's
		// flush failed); latch the degradation here.
		s.degradeLocked(fmt.Errorf("durable: log unavailable: %w", err))
		err = fmt.Errorf("%w: %v", ErrDegraded, s.degradeErr)
		s.mu.Unlock()
		return err
	}
	if err := applyFn(s.Core()); err != nil {
		s.mu.Unlock()
		return err
	}
	// Encode and size-check BEFORE consuming a sequence number: an op that
	// cannot be logged (marshal failure, oversize record) must not leave a
	// gap in the on-disk seq stream — a gap makes replay refuse the whole
	// log. The apply above already happened, though, so memory is now
	// ahead of disk; degrade the store like any other log failure rather
	// than serving state that would silently vanish on restart.
	rec.Seq = s.seq + 1
	payload, err := json.Marshal(rec)
	if err == nil && int64(len(payload)) > maxRecordSize {
		err = fmt.Errorf("op of %d bytes exceeds max record size %d", len(payload), maxRecordSize)
	}
	if err != nil {
		s.degradeLocked(fmt.Errorf("durable: unloggable op %d: %w", rec.Seq, err))
		err = fmt.Errorf("%w: %v", ErrDegraded, s.degradeErr)
		s.mu.Unlock()
		return err
	}
	s.seq++
	ack := s.w.AppendAsyncTraced(payload, sp)
	size := s.w.Size()
	s.mu.Unlock()

	waitStart := time.Now()
	if err := <-ack; err != nil {
		// The record may or may not have reached the platter — the ack is
		// withheld either way (fsyncgate: a failed fdatasync never acks).
		// Memory is possibly ahead of the log now; degrade so no later
		// write widens the divergence. ErrDegraded is wrapped so HTTP maps
		// the failing op itself to 503 + Retry-After like the refusals
		// that follow it.
		s.mu.Lock()
		s.degradeLocked(fmt.Errorf("durable: log op %d: %w", rec.Seq, err))
		s.mu.Unlock()
		return fmt.Errorf("%w: log op %d: %w", ErrDegraded, rec.Seq, err)
	}
	s.m.commitWait.Observe(time.Since(waitStart).Seconds())
	s.m.op(rec.Kind.String()).Inc()
	s.m.seq.Set(int64(rec.Seq))
	// The mutation is durable from here on: a compaction failure is
	// recorded in Stats (and wedges the log for later mutations if the
	// writer died), but must not report this op as failed — callers would
	// retry an already-committed write.
	if s.opts.CompactThreshold > 0 && size >= s.opts.CompactThreshold {
		if err := s.compactIfNeeded(); err != nil {
			s.mu.Lock()
			s.compactFailures++
			s.lastCompactErr = err.Error()
			s.mu.Unlock()
			s.m.compactFailures.Inc()
		}
	}
	return nil
}

// degradeLocked latches the degraded state; the first fault wins.
// Callers hold s.mu.
func (s *Store) degradeLocked(cause error) {
	if s.degradeErr == nil && !s.closed {
		s.degradeErr = cause
		s.m.setHealthGauge(StateDegraded)
	}
}

// Health reports the degradation state machine's position.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthLocked()
}

func (s *Store) healthLocked() Health {
	switch {
	case s.closed:
		return Health{State: StateClosed}
	case s.degradeErr != nil:
		return Health{State: StateDegraded, Reason: s.degradeErr.Error()}
	}
	return Health{State: StateHealthy}
}

// Reopen recovers a degraded store. The in-memory state is discarded —
// it may be ahead of the log by mutations that were applied but never
// acknowledged, and those must not survive — and the data directory is
// re-validated exactly as Open does: manifest, snapshot, WAL replay,
// torn-tail truncation. A durable probe append must then succeed before
// the store accepts writes again; any failure leaves it degraded.
// Returns the reloaded core store — callers holding the previous Core()
// pointer should re-fetch (reads against the old pointer stay safe,
// they just see the pre-recovery view). On a healthy store Reopen is a
// no-op returning the current core.
func (s *Store) Reopen() (*core.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, wal.ErrClosed
	}
	if s.degradeErr == nil {
		return s.Core(), nil
	}
	// Quiesce the old writer first: Close drains its flush loop, so no
	// concurrent flush can interleave with the reload below. Its error is
	// expected — the writer is usually poisoned.
	if s.w != nil {
		_ = s.w.Close()
	}
	fresh := &Store{dir: s.dir, opts: s.opts, m: s.m}
	if err := fresh.load(); err != nil {
		return nil, fmt.Errorf("durable: reopen: %w", err)
	}
	// Probe the log end-to-end (append + fdatasync) before declaring
	// health: a disk that loads but cannot persist stays degraded.
	if err := fresh.w.Sync(); err != nil {
		_ = fresh.w.Close()
		return nil, fmt.Errorf("durable: reopen: log probe: %w", err)
	}
	s.w = fresh.w
	s.core.Store(fresh.Core())
	s.seq = fresh.seq
	s.snapshotSeq = fresh.snapshotSeq
	s.replayed = fresh.replayed
	s.skipped = fresh.skipped
	s.tornBytes = fresh.tornBytes
	s.degradeErr = nil
	s.reopens++
	s.m.setHealthGauge(StateHealthy)
	s.m.reopens.Inc()
	s.m.seq.Set(int64(s.seq))
	return fresh.Core(), nil
}

// compactIfNeeded re-checks the log size under the lock before
// compacting: when many concurrent writers cross the threshold together,
// the first one's compaction empties the log and the rest skip, instead
// of N back-to-back whole-store exports.
func (s *Store) compactIfNeeded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wal.ErrClosed
	}
	if s.w.Size() < s.opts.CompactThreshold {
		return nil
	}
	return s.compactLocked()
}

// Apply logs and applies one op — the entry point for every mutation that
// has no method of its own below (registrations, record tables and rows;
// persist has a constructor for each). The live mutation is op.Apply, the
// same call replay makes.
func (s *Store) Apply(op persist.Op) error {
	return s.logApply(&record{Op: op}, nil, op.Apply)
}

// NewAnnotation starts an annotation builder on the wrapped store; pass
// it to Commit.
func (s *Store) NewAnnotation() *core.Builder { return s.Core().NewAnnotation() }

// Mark constructors delegate to the wrapped store (marks are read-only
// until committed).

// MarkSequenceInterval marks a sequence span.
func (s *Store) MarkSequenceInterval(seqID string, local interval.Interval) (*core.Referent, error) {
	return s.Core().MarkSequenceInterval(seqID, local)
}

// MarkDomainInterval marks a span of a coordinate domain.
func (s *Store) MarkDomainInterval(domain string, iv interval.Interval) (*core.Referent, error) {
	return s.Core().MarkDomainInterval(domain, iv)
}

// MarkImageRegion marks a rectangular image region.
func (s *Store) MarkImageRegion(imageID string, local rtree.Rect) (*core.Referent, error) {
	return s.Core().MarkImageRegion(imageID, local)
}

// Commit logs and commits an annotation. The committed annotation — with
// the IDs the in-memory store assigned — is what gets logged, so replay
// reassigns exactly the same IDs.
func (s *Store) Commit(b *core.Builder) (*core.Annotation, error) {
	var ann *core.Annotation
	rec := record{Op: persist.Op{Kind: core.OpCommitAnnotation}}
	err := s.logApply(&rec, b.Span(), func(c *core.Store) error {
		var err error
		ann, err = c.Commit(b)
		if err != nil {
			return err
		}
		if s.dir == "" {
			return nil // nothing to log the dump into
		}
		d, err := persist.DumpAnnotation(c.View(), ann)
		if err != nil {
			return err
		}
		rec.Annotation = &d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ann, nil
}

// DeleteAnnotation logs and deletes an annotation.
func (s *Store) DeleteAnnotation(id uint64) error {
	return s.Apply(persist.Op{Kind: core.OpDeleteAnnotation, DeleteID: id})
}

// AddRule logs and registers a propagation rule. The rule is a durable
// op; the derived facts it materializes are not logged — recovery
// re-derives them by replaying the rule among the other mutations. The
// live rule is added directly: its errors reach HTTP clients without the
// loader's prefix.
func (s *Store) AddRule(r prop.Rule) error {
	d := persist.DumpRule(r)
	return s.logApply(&record{Op: persist.Op{Kind: core.OpAddRule, Rule: &d}}, nil,
		func(c *core.Store) error { return prop.Attach(c).AddRule(r) })
}

// DeleteRule logs and removes a propagation rule (and its derived facts).
func (s *Store) DeleteRule(id string) error {
	return s.Apply(persist.Op{Kind: core.OpDeleteRule, RuleID: id})
}

// Compact checkpoints the current state as a snapshot and rotates to an
// empty log. Called automatically when the log crosses the threshold;
// callers may also force it (e.g. before backup).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wal.ErrClosed
	}
	if s.dir == "" {
		return nil
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	return s.checkpointLocked(s.Core(), s.seq)
}

// checkpointLocked durably checkpoints cs as the state at op sequence
// seq: snapshot file, manifest commit, log rotation. It does not touch
// s.core or s.seq — callers swap those only after it succeeds.
//
// Failure semantics: a fault in steps 1–2 (snapshot or manifest write)
// leaves the previous snapshot+manifest+log pair intact and loadable —
// the store stays healthy and writable, the failure is only counted. A
// fault in step 3 (rotation) happens after the new checkpoint committed,
// so no data is at risk, but it leaves the store without a live log:
// that degrades it.
func (s *Store) checkpointLocked(cs *core.Store, seq uint64) error {
	if s.degradeErr != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, s.degradeErr)
	}
	// 1. Checkpoint the given state (for compaction, it covers every
	//    applied op — all enqueued log records — because applies happen
	//    under mu) into a seq-named file. Until the manifest names it, it
	//    is invisible.
	snap, err := persist.Export(cs)
	if err != nil {
		return fmt.Errorf("durable: compact export: %w", err)
	}
	name := snapName(seq)
	if err := writeFileSync(s.opts.Inject, filepath.Join(s.dir, name), func(f *os.File) error {
		return json.NewEncoder(f).Encode(snap)
	}); err != nil {
		return fmt.Errorf("durable: compact snapshot: %w", err)
	}
	// 2. Commit: the manifest rename atomically switches (snapshot, seq)
	//    as one pair. A crash before this keeps the old checkpoint and a
	//    harmless orphan file; a crash after it makes replay skip every
	//    record the new snapshot covers.
	if err := writeFileSync(s.opts.Inject, filepath.Join(s.dir, manifestFile), func(f *os.File) error {
		return json.NewEncoder(f).Encode(manifest{SnapshotSeq: seq, Snapshot: name})
	}); err != nil {
		return fmt.Errorf("durable: compact manifest: %w", err)
	}
	s.snapshotSeq = seq
	// 3. Rotate: close the old log (flushing any still-pending appends —
	//    all of which the snapshot covers) and start an empty one. A crash
	//    before Create leaves the old log in place; replay then skips all
	//    of it via the manifest.
	if err := s.w.Close(); err != nil {
		err = fmt.Errorf("durable: compact close log: %w", err)
		s.degradeLocked(err)
		return err
	}
	w, err := wal.Create(filepath.Join(s.dir, logFile), s.walOptions())
	if err != nil {
		err = fmt.Errorf("durable: compact rotate log: %w", err)
		s.degradeLocked(err)
		return err
	}
	s.w = w
	s.compactions++
	s.m.compactions.Inc()
	s.removeStaleSnapshots(name)
	return nil
}

// Restore replaces the store's entire state with snap and checkpoints it
// immediately (fresh snapshot + empty log). The previous state is gone.
func (s *Store) Restore(snap *persist.Snapshot) (*core.Store, error) {
	cs, err := s.Stage(snap, nil)
	if err != nil {
		return nil, err
	}
	if err := s.Install(cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Stage loads the part of snap that keep accepts (nil: all of it) into a
// fresh store built like this pipeline's own, without touching the
// pipeline: the half of Restore that can reject a snapshot. A shard set
// stages every shard's part before it installs any.
func (s *Store) Stage(snap *persist.Snapshot, keep func(persist.Op) bool) (*core.Store, error) {
	return persist.LoadPart(snap, s.opts.Store, keep)
}

// Install makes a staged store the pipeline's state: checkpointed first
// when there is a log, then swapped in.
func (s *Store) Install(cs *core.Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wal.ErrClosed
	}
	// Checkpoint the restored state BEFORE swapping it in: if the
	// checkpoint fails, memory still matches disk and the store keeps
	// serving its previous state. The +1 makes the restore itself an op,
	// so stale log records can never replay over the restored state.
	if s.dir != "" {
		if err := s.checkpointLocked(cs, s.seq+1); err != nil {
			return err
		}
	}
	s.core.Store(cs)
	s.seq++
	return nil
}

// Stats returns durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Seq:              s.seq,
		SnapshotSeq:      s.snapshotSeq,
		Compactions:      s.compactions,
		ReplayedRecords:  s.replayed,
		SkippedRecords:   s.skipped,
		TornBytes:        s.tornBytes,
		CompactThreshold: s.opts.CompactThreshold,
		CompactFailures:  s.compactFailures,
		LastCompactError: s.lastCompactErr,
		Health:           s.healthLocked(),
		Reopens:          s.reopens,
	}
	if s.dir != "" && !s.closed {
		st.WAL = s.w.Stats()
		st.LogSize = s.w.Size()
	}
	return st
}

// Sync blocks until every acknowledged mutation is on disk (a no-op given
// mutations already wait, but useful as a barrier around direct WAL use).
// It retries when a concurrent compaction rotates the writer out from
// under it — everything the old writer held was flushed by its Close.
func (s *Store) Sync() error {
	if s.dir == "" {
		return nil
	}
	var last *wal.Writer
	for {
		s.mu.Lock()
		w := s.w
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return wal.ErrClosed
		}
		if w == last {
			// Not a rotation: this writer itself is dead (e.g. a failed
			// rotation closed it without replacement).
			return wal.ErrClosed
		}
		err := w.Sync()
		if !errors.Is(err, wal.ErrClosed) {
			return err
		}
		last = w
	}
}

// Close flushes and closes the log. The store rejects mutations
// afterwards; reads through Core() keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.dir == "" {
		return nil
	}
	s.m.setHealthGauge(StateClosed)
	return s.w.Close()
}

// writeFileSync writes path atomically: tmp file, fill, fdatasync, rename
// over path, fsync the directory so the rename itself is durable. Each
// step consults the optional fault injector the way the WAL writer does.
func writeFileSync(inj faultfs.Injector, path string, fill func(*os.File) error) error {
	tmp := path + ".tmp"
	if err := faultfs.Check(inj, faultfs.OpCreate, tmp); err != nil {
		return err
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	err = faultfs.Check(inj, faultfs.OpSync, tmp)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	err = faultfs.Check(inj, faultfs.OpRename, path)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := faultfs.Check(inj, faultfs.OpDirSync, filepath.Dir(path)); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
