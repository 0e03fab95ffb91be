package workload

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
)

// pinnedStream is a scenario stream a harness drives, and its digest.
type pinnedStream struct {
	cfg     RecoveryConfig
	systems int // 0: RecoveryScenario
	sha256  string
}

// ops generates the stream.
func (c pinnedStream) ops() []persist.Op {
	if c.systems > 0 {
		return ShardedScenario(c.cfg, c.systems)
	}
	return RecoveryScenario(c.cfg)
}

var pinnedStreams = []pinnedStream{
	{DefaultRecovery, 0, "7dc50018f2f4f73892ff7300c02dafd09309a7bff5eddee04169e93ddea408b8"},
	{RecoveryConfig{Seed: 42, Images: 6, Ops: 1200}, 0, "1ab517f96467f65ccb01e55767391a972aa21e827cd38bd53cc027070d7e06ce"},
	{RecoveryConfig{Seed: 7, Images: 3, Ops: 60}, 0, "c5d0868a6e167d9add6ff50db7ad5ad140775e9450add19c1e512b018efb4054"},
	{RecoveryConfig{Seed: 11, Images: 2, Ops: 40}, 0, "a13b283b938b83fe86d55b00cf8ac381d7224f36db815b0034c55875a1dd929a"},
	{RecoveryConfig{Seed: 5, Images: 3, Ops: 60}, 0, "ab04203eeae73c87cca9e3fd5e0de73fbcafff12ae2a21c54a88f556261e4bac"},
	{RecoveryConfig{Seed: 5, Images: 4, Ops: 120}, 0, "944f7455cdad91f2628877543d9a1c64332a0a75a7f9e6bfb418695921df62fa"},
	{RecoveryConfig{Seed: 7, Images: 6, Ops: 150}, 0, "b17337e7db81a200891523172e3e087fc812e374e1040901132cdd3fe21ace1b"},
	{RecoveryConfig{Seed: 11, Images: 6, Ops: 250}, 3, "488f0266e6e831671c329a55bc22e3be4d3ac23a4f94d7ffc6bf5db66ce38567"},
	{RecoveryConfig{Seed: 19, Images: 8, Ops: 400}, 4, "4e6d4854fe7f2c8865683cf1af21f30bfcddcc54f30d9511a9f51e82bf91236c"},
	{RecoveryConfig{Seed: 7, Images: 8, Ops: 350}, 4, "193e92fd3169f3409d3b64fd560eb3b6150ad7c9714fa09cf2464b798cf9b4dd"},
	{RecoveryConfig{Seed: 5, Images: 4, Ops: 60}, 3, "1af8dfab21932ce0474dcaba2d91847e94dec226d9b3b593828d4c4f4b36b3d2"},
}

// TestScenarioStreamsPinned pins every scenario stream a test drives, as
// the SHA-256 of its ops' binary forms (persist.AppendOp) one after the
// other. The digests were taken from the generators that handed each step
// to a store as a call — a commit as the op persist.CommitOp makes of its
// builder, a rule as persist.RuleOp, a delete as the delete op — so the
// op streams are the mutations those generators made, byte for byte.
func TestScenarioStreamsPinned(t *testing.T) {
	for _, c := range pinnedStreams {
		ops := c.ops()
		if len(ops) != c.cfg.Ops {
			t.Errorf("%+v over %d systems: %d ops", c.cfg, c.systems, len(ops))
		}
		h := sha256.New()
		for _, op := range ops {
			h.Write(persist.AppendOp(nil, op))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.sha256 {
			t.Errorf("%+v over %d systems: stream digest %s, pinned %s", c.cfg, c.systems, got, c.sha256)
		}
	}
}

// TestRecoveryScenarioDeterministic applies the same generated stream to
// two stores and a regenerated stream to a third; all three must be
// byte-identical snapshots — the property the crash harness depends on.
func TestRecoveryScenarioDeterministic(t *testing.T) {
	cfg := RecoveryConfig{Seed: 7, Images: 6, Ops: 150}
	ops := RecoveryScenario(cfg)
	if len(ops) != cfg.Ops {
		t.Fatalf("generated %d ops, want %d", len(ops), cfg.Ops)
	}
	var views [][]*core.View
	for _, ops := range [][]persist.Op{ops, ops, RecoveryScenario(cfg)} {
		s, err := Serial(ops)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, []*core.View{s.View()})
	}
	for i := 1; i < 3; i++ {
		if err := Diff(views[i], views[0]); err != nil {
			t.Fatalf("store %d diverged from store 0: %v", i, err)
		}
	}
}

// TestRecoveryScenarioCoversOpKinds checks the default stream exercises
// every mutation kind the WAL can log, and each kind of commit: a region,
// a TP53 finding over several images, an interval.
func TestRecoveryScenarioCoversOpKinds(t *testing.T) {
	ops := RecoveryScenario(DefaultRecovery)
	kinds := map[core.OpKind]bool{}
	commits := map[string]bool{}
	for _, op := range ops {
		kinds[op.Kind] = true
		if a := op.Annotation; a != nil {
			switch {
			case strings.Contains(a.Body, "protein.TP53") && len(a.Referents) > 1:
				commits["tp53"] = true
			case core.ReferentKind(a.Referents[0].Kind) == core.RegionReferent:
				commits["region"] = true
			case core.ReferentKind(a.Referents[0].Kind) == core.IntervalReferent:
				commits["interval"] = true
			}
		}
	}
	for _, k := range []core.OpKind{
		core.OpRegisterOntology, core.OpRegisterSystem, core.OpRegisterImage,
		core.OpCreateRecordTable, core.OpAddRule, core.OpCommitAnnotation,
		core.OpInsertRecord, core.OpRegisterSequence, core.OpDeleteAnnotation,
	} {
		if !kinds[k] {
			t.Errorf("scenario has no %s op", k)
		}
	}
	for _, c := range []string{"region", "tp53", "interval"} {
		if !commits[c] {
			t.Errorf("scenario has no %s commit", c)
		}
	}
	// Prefixes applied to a store must always be valid (no op depends on
	// a later one).
	if _, err := Serial(ops[:100]); err != nil {
		t.Fatal(err)
	}
}
