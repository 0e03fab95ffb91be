package core

import "fmt"

// OpKind enumerates the store's mutating operations. The durable layer
// (internal/durable) logs one op per mutation and replays them on
// recovery; the enumeration lives in core so the set of loggable
// mutations and the set of store mutations evolve together.
type OpKind uint8

// The mutation operations, in rough dependency order. Values are part of
// the on-disk WAL format: never renumber, only append.
const (
	// OpInvalid is the zero value; it never appears in a valid log.
	OpInvalid OpKind = iota
	// OpRegisterOntology registers a term graph.
	OpRegisterOntology
	// OpRegisterSystem registers a coordinate system.
	OpRegisterSystem
	// OpRegisterSequence registers a DNA/RNA/protein sequence.
	OpRegisterSequence
	// OpRegisterAlignment registers a multiple sequence alignment.
	OpRegisterAlignment
	// OpRegisterTree registers a phylogenetic tree.
	OpRegisterTree
	// OpRegisterInteractionGraph registers a molecular interaction graph.
	OpRegisterInteractionGraph
	// OpRegisterImage registers an image into a coordinate system.
	OpRegisterImage
	// OpCreateRecordTable creates a user record table.
	OpCreateRecordTable
	// OpInsertRecord inserts a row into a user record table.
	OpInsertRecord
	// OpCommitAnnotation commits an annotation (and any new referents).
	OpCommitAnnotation
	// OpDeleteAnnotation deletes an annotation (garbage-collecting
	// referents no other annotation references).
	OpDeleteAnnotation
	// OpAddRule registers a propagation rule. Rules are durable ops —
	// the derived facts they materialize are not (they are recomputed on
	// replay).
	OpAddRule
	// OpDeleteRule removes a propagation rule and its derived facts.
	OpDeleteRule
)

func (k OpKind) String() string {
	switch k {
	case OpRegisterOntology:
		return "register-ontology"
	case OpRegisterSystem:
		return "register-system"
	case OpRegisterSequence:
		return "register-sequence"
	case OpRegisterAlignment:
		return "register-alignment"
	case OpRegisterTree:
		return "register-tree"
	case OpRegisterInteractionGraph:
		return "register-interaction-graph"
	case OpRegisterImage:
		return "register-image"
	case OpCreateRecordTable:
		return "create-record-table"
	case OpInsertRecord:
		return "insert-record"
	case OpCommitAnnotation:
		return "commit-annotation"
	case OpDeleteAnnotation:
		return "delete-annotation"
	case OpAddRule:
		return "add-rule"
	case OpDeleteRule:
		return "delete-rule"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// IDCounters returns the annotation and referent ID counters (the next
// commit assigns nextAnn+1 / nextRef+1). Snapshots persist them so a
// restored store continues the exact ID sequence of the original —
// required for the durable layer's replay determinism when IDs outlive
// their annotations (deleted annotations leave gaps).
func (s *Store) IDCounters() (nextAnn, nextRef uint64) {
	return s.View().IDCounters()
}

// RestoreIDCounters sets the ID counters after a snapshot load. Counters
// may only move forward: lowering them would re-issue IDs that earlier
// annotations (possibly deleted ones recorded in a log) already used.
// They may not pass MaxID, the ceiling on pinned IDs.
// Like every mutation, the change commits through the writer and
// publishes a new view.
func (s *Store) RestoreIDCounters(nextAnn, nextRef uint64) error {
	if max(nextAnn, nextRef) > MaxID {
		return fmt.Errorf("core: ID counters (%d, %d) exceed MaxID (%d)", nextAnn, nextRef, uint64(MaxID))
	}
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if nextAnn < v.nextAnn || nextRef < v.nextRef {
		return fmt.Errorf("core: ID counters (%d, %d) behind live counters (%d, %d)",
			nextAnn, nextRef, v.nextAnn, v.nextRef)
	}
	nv := v.clone()
	nv.nextAnn, nv.nextRef = nextAnn, nextRef
	s.publish(nv)
	return nil
}
