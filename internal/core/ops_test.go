package core_test

import (
	"strings"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
)

// TestOpKindsPinned pins every op kind's number and name: the number is in
// every WAL record on disk, the name is a metric label value. Then it
// walks the kinds up to the last one and asks the two other places that
// must learn a new kind whether they know it: persist.Op.Apply, which
// refuses a hollow op of a kind it knows for its missing dump (or the
// store refuses what it names), and the shard set's routing table. A
// fourteenth kind fails here until all three have it.
func TestOpKindsPinned(t *testing.T) {
	pinned := []struct {
		kind core.OpKind
		n    uint8
		name string
	}{
		{core.OpRegisterOntology, 1, "register-ontology"},
		{core.OpRegisterSystem, 2, "register-system"},
		{core.OpRegisterSequence, 3, "register-sequence"},
		{core.OpRegisterAlignment, 4, "register-alignment"},
		{core.OpRegisterTree, 5, "register-tree"},
		{core.OpRegisterInteractionGraph, 6, "register-interaction-graph"},
		{core.OpRegisterImage, 7, "register-image"},
		{core.OpCreateRecordTable, 8, "create-record-table"},
		{core.OpInsertRecord, 9, "insert-record"},
		{core.OpCommitAnnotation, 10, "commit-annotation"},
		{core.OpDeleteAnnotation, 11, "delete-annotation"},
		{core.OpAddRule, 12, "add-rule"},
		{core.OpDeleteRule, 13, "delete-rule"},
	}
	if core.OpInvalid != 0 {
		t.Errorf("OpInvalid = %d, want 0", core.OpInvalid)
	}
	for _, p := range pinned {
		if uint8(p.kind) != p.n || p.kind.String() != p.name {
			t.Errorf("kind %d %q, pinned as %d %q", uint8(p.kind), p.kind, p.n, p.name)
		}
	}
	last := pinned[len(pinned)-1].kind
	if next := last + 1; !strings.HasPrefix(next.String(), "op(") {
		t.Fatalf("kind %d (%s) exists and is not pinned here", next, next)
	}

	for k := core.OpInvalid + 1; k <= last; k++ {
		hollow := persist.Op{Kind: k}
		for where, err := range map[string]error{
			"persist.Op.Apply": hollow.Apply(core.NewStore()),
			"shard.Apply":      shard.New(2).Apply(hollow),
		} {
			if err == nil {
				t.Errorf("%s accepted a hollow %s op", where, k)
			} else if msg := err.Error(); strings.Contains(msg, "unknown op kind") || strings.Contains(msg, "no route") {
				t.Errorf("%s does not know kind %s: %v", where, k, err)
			}
		}
	}
	for where, err := range map[string]error{
		"persist.Op.Apply": persist.Op{Kind: last + 1}.Apply(core.NewStore()),
		"shard.Apply":      shard.New(2).Apply(persist.Op{Kind: last + 1}),
	} {
		if err == nil {
			t.Errorf("%s accepted a kind past the last", where)
		}
	}
}
