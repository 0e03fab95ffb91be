package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
)

// BenchmarkShaped builds a store of the live benchmark's shape: its eight
// segments and n annotations, each a creator of four, a date, a unique
// title, a phrase and a Zipf-drawn token for a body, and one interval mark
// in a Zipf-drawn segment, committed in one session. The tests that count
// what a store or a checkpoint of it costs build theirs with it.
func BenchmarkShaped(n int) (*core.Store, error) {
	s := core.NewStore()
	for d := 1; d <= 8; d++ {
		sq, err := seq.New(fmt.Sprintf("seg%d", d), seq.DNA, strings.Repeat("ACGT", 64))
		if err != nil {
			return nil, err
		}
		sq.Domain = fmt.Sprintf("segment%d", d)
		if err := s.RegisterSequence(sq); err != nil {
			return nil, err
		}
	}
	creators := []string{"gupta", "condit", "martone", "chen"}
	phrases := []string{
		"conserved motif near the polymerase binding site", "putative protease cleavage region",
		"high mutation density in this window", "binding footprint confirmed by pulldown",
		"kinase activity suspected", "glycosylation site shifts between isolates",
		"reassortment breakpoint candidate", "host adaptation marker reported in poultry",
	}
	rng := rand.New(rand.NewSource(1))
	token := rand.NewZipf(rng, 1.1, 8, 1999)
	domain := rand.NewZipf(rng, 1.2, 1, 7)
	err := s.Batch(func(tx *core.Tx) error {
		for i := range n {
			lo := rng.Int63n(200000 - 100)
			m := &core.Referent{Kind: core.IntervalReferent, ObjectType: core.TypeDNA,
				Interval: interval.Interval{Lo: lo, Hi: lo + 20 + rng.Int63n(80)}}
			m.ObjectID = fmt.Sprintf("seg%d", domain.Uint64()+1)
			m.Domain = "segment" + m.ObjectID[3:]
			b := core.NewBuilder().Creator(creators[rng.Intn(len(creators))]).Date("2008-04-07").
				Title(fmt.Sprintf("p%07d", i)).
				Body(fmt.Sprintf("%s gene%04d", phrases[rng.Intn(len(phrases))], token.Uint64())).Refer(m)
			if _, err := tx.Commit(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
