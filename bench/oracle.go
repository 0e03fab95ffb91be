package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	studies "graphitti/internal/workload"
)

// sessionRule is the one propagation rule of the session workload.
var sessionRule = prop.Rule{ID: "bench-overlap", Keyword: "protease", Kind: "interval", Edge: prop.EdgeOverlap}

// plantedTitles is the ground truth workload.Influenza plants: chains of
// protease annotations whose titles alone carry the token "chain".
const (
	plantedChains = 3
	plantedPerCh  = 4
)

// oracle is the reference the live server is checked against: an
// unsharded in-memory store that takes the same op stream serially.
type oracle struct {
	store *core.Store
	// ids maps a slot to the annotation ID the oracle's store gave it.
	// Preloaded slots have the same ID on the server (snapshots preserve
	// IDs); created slots do not, since two clients interleave.
	ids []uint64
	// applied is how many stream ops the store has absorbed.
	applied int
}

// buildPreload makes the study objects and the preloaded annotations from
// the seed and returns the oracle holding them with the snapshot the
// server is started from. The server never sees the seed.
func buildPreload(w *workload, st *stream, seed int64) (*oracle, []byte, error) {
	study, err := studies.Influenza(studies.InfluenzaConfig{
		Seed: seed, Segments: domains, SeqsPerSeg: seqsPer, SeqLen: seqLen,
		Annotations: 0, ProteaseChains: plantedChains,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("generate study: %w", err)
	}
	or := &oracle{store: study.Store, ids: make([]uint64, st.slots())}
	for i := range st.preload {
		id, err := commitSpec(or.store, &st.preload[i])
		if err != nil {
			return nil, nil, fmt.Errorf("preload annotation %d: %w", i, err)
		}
		or.ids[i] = id
	}
	var snap bytes.Buffer
	if err := persist.Write(or.store, &snap); err != nil {
		return nil, nil, fmt.Errorf("write preload snapshot: %w", err)
	}
	if w.rules {
		// The server installs -rules after loading the snapshot; so does
		// the oracle.
		if err := prop.Attach(or.store).AddRule(sessionRule); err != nil {
			return nil, nil, fmt.Errorf("oracle rule: %w", err)
		}
	}
	return or, snap.Bytes(), nil
}

// writer is the mutation surface core.Store, durable.Store and
// shard.Store share: what POST and DELETE /api/annotations call.
type writer interface {
	NewAnnotation() *core.Builder
	MarkDomainInterval(string, interval.Interval) (*core.Referent, error)
	Commit(*core.Builder) (*core.Annotation, error)
	DeleteAnnotation(uint64) error
}

// commitSpec commits one harness annotation into an in-process store.
func commitSpec(s writer, a *annSpec) (uint64, error) {
	b, err := builderFor(s, a)
	if err != nil {
		return 0, err
	}
	ann, err := s.Commit(b)
	if err != nil {
		return 0, err
	}
	return ann.ID, nil
}

// builderFor assembles the builder POST /api/annotations would.
func builderFor(s writer, a *annSpec) (*core.Builder, error) {
	ref, err := s.MarkDomainInterval(a.domain, interval.Interval{Lo: a.lo, Hi: a.hi})
	if err != nil {
		return nil, err
	}
	return s.NewAnnotation().Creator(a.creator).Date("2008-04-07").
		Title(a.title).Body(a.body).Refer(ref), nil
}

// applyTo replays stream ops [or.applied, upTo) serially: the mutations
// change the store, the reads are skipped.
func (or *oracle) applyTo(st *stream, upTo int) error {
	nPre := len(st.preload)
	for i := or.applied; i < upTo; i++ {
		o := &st.ops[i]
		switch o.cl {
		case clCreate:
			id, err := commitSpec(or.store, o.ann)
			if err != nil {
				return fmt.Errorf("oracle op %d create: %w", i, err)
			}
			or.ids[nPre+i] = id
		case clDelete:
			if err := or.store.DeleteAnnotation(or.ids[o.slot]); err != nil {
				return fmt.Errorf("oracle op %d delete: %w", i, err)
			}
		}
	}
	or.applied = upTo
	return nil
}

// endState is what verification compares: component counts and, per
// unique title, the creator and mark of the annotation carrying it.
type endState struct {
	annotations, referents, derived int
	byTitle                         map[string]string
}

func (or *oracle) endState() endState {
	st := or.store.Stats()
	es := endState{annotations: st.Annotations, referents: st.Referents, derived: st.Derived,
		byTitle: make(map[string]string, st.Annotations)}
	for _, ann := range or.store.Annotations() {
		es.byTitle[ann.DC.First("title")] = signature(ann.DC.First("creator"), ann.Content.String())
	}
	return es
}

// signature reduces an annotation to its creator and first mark. The
// mark is cut from the content document's first referent element, after
// its id attribute: object, domain and coordinates, but no store ID.
func signature(creator, xml string) string {
	mark := ""
	if i := strings.Index(xml, "<referent "); i >= 0 {
		rest := xml[i:]
		if k := strings.Index(rest, " kind="); k >= 0 {
			rest = rest[k:]
			if e := strings.Index(rest, "/>"); e >= 0 {
				mark = rest[:e]
			}
		}
	}
	return creator + "|" + mark
}

// serverState reads the live server's end state over its public API.
func serverState(c *client) (endState, error) {
	var stats struct {
		Annotations, Referents, Derived int
	}
	body, err := c.get("/api/stats")
	if err != nil {
		return endState{}, err
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return endState{}, fmt.Errorf("decode /api/stats: %w", err)
	}
	body, err = c.get("/api/annotations")
	if err != nil {
		return endState{}, err
	}
	var anns []struct {
		Creator, Title, XML string
	}
	if err := json.Unmarshal(body, &anns); err != nil {
		return endState{}, fmt.Errorf("decode /api/annotations: %w", err)
	}
	es := endState{annotations: stats.Annotations, referents: stats.Referents, derived: stats.Derived,
		byTitle: make(map[string]string, len(anns))}
	for _, a := range anns {
		if _, dup := es.byTitle[a.Title]; dup {
			// Titles are unique per op: a second copy is an op applied twice.
			es.byTitle[a.Title] = "duplicate"
			continue
		}
		es.byTitle[a.Title] = signature(a.Creator, a.XML)
	}
	return es, nil
}

// diff counts the annotations on which got departs from want — lost
// acknowledged creates, resurrected deletes, altered content — and
// describes the first few. Count mismatches that no title explains
// (referents, derived facts) count once each.
func (want endState) diff(got endState) (int, []string) {
	bad := 0
	var notes []string
	note := func(format string, args ...interface{}) {
		bad++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	titles := make([]string, 0, len(want.byTitle))
	for t := range want.byTitle {
		titles = append(titles, t)
	}
	sort.Strings(titles)
	for _, t := range titles {
		switch g, ok := got.byTitle[t]; {
		case !ok:
			note("annotation %q missing", t)
		case g != want.byTitle[t]:
			note("annotation %q is %q, want %q", t, g, want.byTitle[t])
		}
	}
	for t := range got.byTitle {
		if _, ok := want.byTitle[t]; !ok {
			note("annotation %q should not exist", t)
		}
	}
	if got.annotations != want.annotations {
		note("%d annotations, want %d", got.annotations, want.annotations)
	}
	if got.referents != want.referents {
		note("%d referents, want %d", got.referents, want.referents)
	}
	if got.derived != want.derived {
		note("%d derived facts, want %d", got.derived, want.derived)
	}
	return bad, notes
}
