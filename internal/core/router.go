package core

import (
	"hash/fnv"
	"sync/atomic"
)

// This file is the core half of the sharded writer pipeline: the Router
// that hashes a routing key onto one of N independent stores, and the
// shared ID allocator that keeps annotation/referent IDs globally unique
// across shards. Which key an op is placed by — read off its dump — is
// internal/shard's route, with the facade's merged reads and broadcasts.

// IDSource allocates annotation and referent IDs for a store. A sharded
// deployment hands every shard the same source so concurrently committed
// annotations never collide; allocations must be strictly monotone.
type IDSource interface {
	AllocAnnotationID() uint64
	AllocReferentID() uint64
}

// AtomicIDs is the standard IDSource for a set of sharded stores: two
// shared atomic counters. The zero value starts both sequences at 1.
type AtomicIDs struct {
	ann atomic.Uint64
	ref atomic.Uint64
}

// AllocAnnotationID returns the next annotation ID.
func (a *AtomicIDs) AllocAnnotationID() uint64 { return a.ann.Add(1) }

// AllocReferentID returns the next referent ID.
func (a *AtomicIDs) AllocReferentID() uint64 { return a.ref.Add(1) }

// Advance raises the counters to at least (nextAnn, nextRef) — the
// recovery path calls it with the maximum per-shard view counters so
// post-replay allocations resume after every replayed ID.
func (a *AtomicIDs) Advance(nextAnn, nextRef uint64) {
	advanceMax(&a.ann, nextAnn)
	advanceMax(&a.ref, nextRef)
}

func advanceMax(c *atomic.Uint64, to uint64) {
	for {
		cur := c.Load()
		if cur >= to || c.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Router maps routing keys onto shard indexes with a stable hash, so the
// same key always lands on the same shard across processes and restarts
// (the on-disk shard layout depends on it).
type Router struct {
	// Shards is the shard count; zero or one routes everything to 0.
	Shards int
}

// ShardOfKey returns the owning shard of a routing key (FNV-1a mod N).
func (r Router) ShardOfKey(key string) int {
	if r.Shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(r.Shards))
}
