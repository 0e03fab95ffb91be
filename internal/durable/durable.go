// Package durable wraps core.Store with crash safety: every mutation is
// encoded as one write-ahead-log record and fdatasynced (group-committed
// across concurrent writers) before the call returns, so an acknowledged
// write survives a kill -9.
//
// # On-disk layout
//
// A data directory holds three files:
//
//	graphitti-<seq>.snap  binary persist checkpoint, its body one DEFLATE
//	                      stream (absent until the first compaction)
//	graphitti.wal         write-ahead log of mutations since the checkpoint
//	MANIFEST.json         {snapshotSeq, snapshot}: which checkpoint file is
//	                      current and the op sequence it covers — its atomic
//	                      rename is the compaction commit point
//
// Each WAL payload is one op behind its global sequence number, in one of
// three forms, read per record since an upgraded server appends to a log
// an earlier build began:
//
//	[0x02][uvarint n][DEFLATE chunk]  compressed: the only form written
//	[0x01][uvarint seq][op]           binary: persist.AppendOp(op)
//	{"seq":n,"kind":k,<dump>}         JSON, the form the first builds logged
//
// A compressed record inflates to the n bytes of a binary one. Its chunk
// is raw DEFLATE: Huffman blocks, or stored ones when those are smaller,
// then the empty stored block of a sync flush less its closing
// 00 00 ff ff (as in RFC 7692). Its matches may refer back into the last
// 32 KiB of the log's earlier decoded payloads, of whatever form. The
// log's compressor, the record face of the program's one DEFLATE encoder
// (deflate.Records, which checkpoints are deflated by as well), keeps
// that window and hash chains over it, and matches as compress/flate
// level 5 does, so any inflater primed with the window reads a record. Replay decodes every record, skipped
// ones included, to keep the window; a compressor resumed over a log
// starts from it, and one on a fresh log from nothing. Builds before the
// compressed form refuse it.
//
// The checkpoint is the same per-dump encoding around a whole
// snapshot, written straight from a pinned view of the store, deflated,
// behind a format byte and ahead of a CRC32C of the compressed bytes
// (persist.WriteCheckpoint); the uncompressed format earlier builds wrote
// still loads. persist.ReadOps streams it like any snapshot file, so
// `graphitti -load <checkpoint> -save out.json stats` turns one into
// JSON. Open loads the checkpoint, replays WAL records with Seq beyond
// the manifest's snapshotSeq, truncates a torn tail instead of failing,
// and resumes appending. The replayed records are one core writer session
// (a Batch) and publish one view, rules or not.
//
// # Compaction
//
// Once the log's decoded size — its header plus, per record, the 8-byte
// frame header and the decoded payload, what the log would take with
// every record stored raw — crosses Options.CompactThreshold, the store
// writes a fresh snapshot + manifest (tmp file, fdatasync, atomic rename) and
// rotates to an empty log. A crash at any point between those steps is
// safe: replay skips records the manifest says the snapshot already
// covers, so a stale log over a new snapshot only costs skipped records.
//
// # Semantics
//
// A pipeline's state is a function of its ops. Run(op) is the one path:
// the live mutation is op.Run, as a session of one, and replay applies
// the same op (op.Apply, which op.Run wraps), all records in one session — so the
// pipeline builds its own copy of what it registers, and nothing the
// caller does to the original afterwards is served here and missing after
// a restart. A commit is an op like any other (persist.CommitOp): the
// session fills in the IDs it chose, and the completed op is what gets
// logged, so replay pins them. The package orders, logs and acknowledges
// ops without looking inside them; Apply, Commit and the other mutators
// are each an op plus Run.
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

// maxRecordSize mirrors the WAL's frame bound. It bounds a record's
// decoded length and its frame both, checked before a sequence number is
// consumed so an oversize op cannot leave a seq gap.
const maxRecordSize = wal.MaxRecordSize

// DefaultCompactThreshold is the log size that triggers compaction when
// Options.CompactThreshold is zero.
const DefaultCompactThreshold = 8 << 20

// Options tune a durable store.
type Options struct {
	// CompactThreshold is the WAL's decoded size in bytes (every record
	// counted as if stored raw) beyond which a mutation triggers snapshot
	// compaction; 0 means DefaultCompactThreshold, a negative value
	// disables compaction.
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
	// LogSize is the live log's file size. CompactThreshold is compared
	// with its decoded size, every record counted as if stored raw.
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
// Memory. Reads go straight to Core(); every mutation goes through Run,
// which logs (when there is a log) before acknowledging. All methods are
// safe for concurrent use.
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
	// z compresses the records of w's log; nil while degraded.
	z *deflater
	// saved is how many bytes w's log would grow by were its records
	// decoded: the compaction trigger reads w.Size() + saved.
	saved int64

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
	s.Core().PublishGauges()
	s.m.setHealthGauge(StateHealthy)
	s.m.seq.Set(int64(s.seq))
	return s, nil
}

// Memory returns a pipeline without a log over cs. Its argument so must be
// the core.StoreOptions cs was built with: Stage builds a restore's
// replacement store with them.
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

	var snap persist.Source
	switch {
	case man.Snapshot != "":
		f, err := os.Open(filepath.Join(s.dir, man.Snapshot))
		if err != nil {
			// The manifest committed to a checkpoint; its absence is data
			// loss, not a fresh directory.
			return fmt.Errorf("durable: manifest names snapshot %s: %w", man.Snapshot, err)
		}
		defer f.Close()
		snap = persist.ReadOps(f, 0)
	case man.SnapshotSeq != 0:
		return fmt.Errorf("durable: manifest claims checkpoint at seq %d but names no snapshot", man.SnapshotSeq)
	}
	cs := core.NewStoreWithOptions(s.opts.Store)
	s.core.Store(cs)

	// The checkpoint's ops and then the log's records are one writer
	// session: one published view for the whole recovery, as many epochs
	// on as ops applied. A checkpoint that fails to load is its own error,
	// never the missing or header-torn log that starts a fresh one below.
	logPath := filepath.Join(s.dir, logFile)
	var info wal.RecoveryInfo
	var in inflater
	var snapErr error
	err := cs.Batch(func(x *core.Tx) (err error) {
		if snap != nil {
			if snapErr = persist.Replay(x, snap); snapErr != nil {
				return snapErr
			}
		}
		s.removeStaleSnapshots(man.Snapshot)
		s.removeTmpOrphans()
		info, err = wal.Scan(logPath, func(payload []byte) error { return s.replayRecord(x, &in, payload) })
		return err
	})
	if snapErr != nil {
		return fmt.Errorf("durable: load snapshot %s: %w", man.Snapshot, snapErr)
	}
	switch {
	case err == nil:
		s.tornBytes = info.TornBytes
		s.w, err = wal.OpenAt(logPath, info.ValidSize, s.walOptions())
		if err != nil {
			return err
		}
		s.z = newDeflater(in.dict())
	case errors.Is(err, os.ErrNotExist) || errors.Is(err, wal.ErrBadHeader):
		// No log, or a log whose very header was torn: start a fresh one.
		// Header-torn logs can hold no durable (acknowledged) records.
		s.w, err = wal.Create(logPath, s.walOptions())
		if err != nil {
			return err
		}
		s.z, s.saved = newDeflater(nil), 0
	default:
		return err
	}
	return nil
}

// walOptions derives the WAL writer options from the store's own.
func (s *Store) walOptions() wal.Options {
	return wal.Options{NoSync: s.opts.NoSync, Inject: s.opts.Inject, Shard: s.opts.Store.Shard}
}

// replayRecord applies one scanned WAL payload during Open, as one op of
// the replay session x; in decodes the log's payloads in order.
func (s *Store) replayRecord(x *core.Tx, in *inflater, payload []byte) error {
	if len(payload) == 0 {
		return nil // Sync marker
	}
	raw, err := in.decode(payload)
	if err != nil {
		return fmt.Errorf("durable: undecodable WAL record after seq %d: %w", s.seq, err)
	}
	s.saved += int64(len(raw) - len(payload))
	rec, err := decodeRecord(raw)
	if err != nil {
		return fmt.Errorf("durable: undecodable WAL record after seq %d: %w", s.seq, err)
	}
	if rec.Seq <= s.snapshotSeq {
		s.skipped++ // checkpoint already covers it (stale log after compaction crash)
		return nil
	}
	if rec.Seq != s.seq+1 {
		return fmt.Errorf("durable: WAL record seq %d after %d (log out of order)", rec.Seq, s.seq)
	}
	if err := rec.Apply(x); err != nil {
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
		if filepath.Base(m) != current {
			s.removeBestEffort(m)
		}
	}
}

// removeTmpOrphans best-effort deletes the tmp files a crash left behind
// in the middle of WriteFileSync: a checkpoint or manifest that was still
// being filled. WriteFileSync renames a tmp file only after its fsync, so
// one present at open was never committed and never will be.
func (s *Store) removeTmpOrphans() {
	for _, pattern := range []string{snapPattern + ".tmp", manifestFile + ".tmp"} {
		matches, _ := filepath.Glob(filepath.Join(s.dir, pattern))
		for _, m := range matches {
			s.removeBestEffort(m)
		}
	}
}

// removeBestEffort deletes path and ignores a failure: what it removes
// costs disk, not correctness. rawfileop contract: even a best-effort
// delete consults the injector, so the harness sees (and can fail) every
// file op the durability path performs. An injected failure leaves the
// file behind, exactly like a real unlink error would.
func (s *Store) removeBestEffort(path string) {
	if faultfs.Check(s.opts.Inject, faultfs.OpRemove, path) != nil {
		return
	}
	_ = os.Remove(path)
}

// Core returns the wrapped store for reads and queries. Mutating it
// directly bypasses the log; use Apply and the Store's other mutators.
func (s *Store) Core() *core.Store { return s.core.Load() }

// Dir returns the data directory ("" for a pipeline without a log).
func (s *Store) Dir() string { return s.dir }

// Run logs and applies one op and answers with the annotation a commit op
// committed (nil for other kinds). Under the ordering lock the op is
// applied, completed with the IDs its session chose (persist.Op.Run) and,
// when there is a log, sequenced and enqueued; the caller waits for the
// group-committed fdatasync outside it. The op's span rides the WAL
// append, so the flusher attaches the shared "wal.flush" span (batch ID
// included) to it before the ack fires.
func (s *Store) Run(op persist.Op) (*core.Annotation, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, wal.ErrClosed
	}
	// Refuse BEFORE mutating when the store is degraded (a sticky flush
	// error, a failed rotation that left the log closed, an earlier
	// unloggable op, or a WAL writer that poisoned itself asynchronously):
	// applying first would leave reader-visible state that vanishes on
	// restart.
	if s.dir != "" {
		if err := s.w.Err(); err != nil {
			s.degradeLocked(fmt.Errorf("durable: log unavailable: %w", err))
		}
		if s.degradeErr != nil {
			err := fmt.Errorf("%w: %v", ErrDegraded, s.degradeErr)
			s.mu.Unlock()
			return nil, err
		}
	}
	var ann *core.Annotation
	if err := s.Core().Batch(func(x *core.Tx) (err error) {
		op, ann, err = op.Run(x)
		return err
	}); err != nil || s.dir == "" {
		s.mu.Unlock()
		return ann, err
	}
	// Encode, compress and size-check BEFORE consuming a sequence number:
	// an op that cannot be logged (an oversize record) must not leave a gap
	// in the on-disk seq stream — a gap makes replay refuse the whole log.
	// The apply above already happened, though, so memory is now ahead of
	// disk; degrade the store like any other log failure rather than
	// serving state that would silently vanish on restart.
	seq := s.seq + 1
	raw := encodeRecord(seq, op)
	var payload []byte
	if int64(len(raw)) <= maxRecordSize {
		payload = s.z.frame(raw)
	}
	if payload == nil || int64(len(payload)) > maxRecordSize {
		err := fmt.Errorf("op of %d bytes (%d compressed) exceeds max record size %d", len(raw), len(payload), maxRecordSize)
		s.degradeLocked(fmt.Errorf("durable: unloggable op %d: %w", seq, err))
		err = fmt.Errorf("%w: %v", ErrDegraded, s.degradeErr)
		s.mu.Unlock()
		return nil, err
	}
	s.seq++
	s.saved += int64(len(raw) - len(payload))
	ack := s.w.AppendAsyncTraced(payload, op.Span())
	size := s.w.Size() + s.saved
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
		s.degradeLocked(fmt.Errorf("durable: log op %d: %w", seq, err))
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: log op %d: %w", ErrDegraded, seq, err)
	}
	s.m.commitWait.Observe(time.Since(waitStart).Seconds())
	s.m.op(op.Kind.String()).Inc()
	s.m.seq.Set(int64(seq))
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
	return ann, nil
}

// degradeLocked latches the degraded state; the first fault wins. The
// compressor goes with it: it may be ahead of the log, and load builds
// the next one from what the log holds. Callers hold s.mu.
func (s *Store) degradeLocked(cause error) {
	s.z = nil
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
	// The reload publishes under the store's label; whichever store
	// serves when Reopen returns, reloaded or kept, is what the view
	// gauges read.
	defer func() { s.Core().PublishGauges() }()
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
	s.w, s.z, s.saved = fresh.w, fresh.z, fresh.saved
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

// compactIfNeeded re-checks the log's decoded size under the lock before
// compacting: when many concurrent writers cross the threshold together,
// the first one's compaction empties the log and the rest skip, instead
// of writing N back-to-back checkpoints of the whole store.
func (s *Store) compactIfNeeded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wal.ErrClosed
	}
	if s.w.Size()+s.saved < s.opts.CompactThreshold {
		return nil
	}
	return s.compactLocked()
}

// Apply logs and applies one op: Run without the answer. It is the entry
// point for every mutation that has no method of its own below
// (registrations, record tables and rows; persist has a constructor for
// each).
func (s *Store) Apply(op persist.Op) error {
	_, err := s.Run(op)
	return err
}

// NewAnnotation starts a store-free annotation builder; pass it to Commit.
// It outlives a Restore or Reopen of the pipeline.
func (s *Store) NewAnnotation() *core.Builder { return core.NewBuilder() }

// MarkDomainInterval marks a span of a coordinate domain against the
// wrapped store's current view (marks are read-only until committed).
func (s *Store) MarkDomainInterval(domain string, iv interval.Interval) (*core.Referent, error) {
	return s.Core().View().MarkDomainInterval(domain, iv)
}

// Commit logs and commits the annotation b assembles: Run of its op.
func (s *Store) Commit(b *core.Builder) (*core.Annotation, error) {
	op, err := persist.CommitOp(b)
	if err != nil {
		return nil, err
	}
	return s.Run(op)
}

// DeleteAnnotation logs and deletes an annotation.
func (s *Store) DeleteAnnotation(id uint64) error {
	return s.Apply(persist.Op{Kind: core.OpDeleteAnnotation, DeleteID: id})
}

// AddRule logs and registers a propagation rule. The rule is a durable
// op; the derived facts it materializes are not logged — recovery
// re-derives them by replaying the rule among the other mutations.
func (s *Store) AddRule(r prop.Rule) error {
	return s.Apply(persist.RuleOp(r))
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
	//    is invisible. The checkpoint streams from one pinned view of cs:
	//    no second copy of the store is built to write it.
	name := snapName(seq)
	if err := WriteFileSync(s.opts.Inject, filepath.Join(s.dir, name), func(f *os.File) error {
		return persist.WriteCheckpoint([]*core.View{cs.View()}, f)
	}); err != nil {
		return fmt.Errorf("durable: compact snapshot: %w", err)
	}
	// 2. Commit: the manifest rename atomically switches (snapshot, seq)
	//    as one pair. A crash before this keeps the old checkpoint and a
	//    harmless orphan file; a crash after it makes replay skip every
	//    record the new snapshot covers.
	if err := WriteFileSync(s.opts.Inject, filepath.Join(s.dir, manifestFile), func(f *os.File) error {
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
	s.w, s.z, s.saved = w, s.z.fresh(), 0
	s.compactions++
	s.m.compactions.Inc()
	s.removeStaleSnapshots(name)
	return nil
}

// Restore replaces the store's entire state with the snapshot src yields
// and checkpoints it immediately (fresh snapshot + empty log). The
// previous state is gone.
func (s *Store) Restore(src persist.Source) (*core.Store, error) {
	cs, err := s.Stage(src)
	if err != nil {
		s.Core().PublishGauges()
		return nil, err
	}
	if err := s.Install(cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Stage loads the ops of src into a fresh store built like this
// pipeline's own, without touching the pipeline: the half of Restore that
// can reject a snapshot. A shard set stages every shard's part before it
// installs any.
func (s *Store) Stage(src persist.Source) (*core.Store, error) {
	return persist.LoadWith(src, s.opts.Store)
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
			s.Core().PublishGauges()
			return err
		}
	}
	s.core.Store(cs)
	cs.PublishGauges()
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

// WriteFileSync writes path atomically: tmp file (path + ".tmp"), fill,
// fdatasync, rename over path, fsync the directory so the rename itself
// is durable. Each step consults the optional fault injector the way the
// WAL writer does.
func WriteFileSync(inj faultfs.Injector, path string, fill func(*os.File) error) error {
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
