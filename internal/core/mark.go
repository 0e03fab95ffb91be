package core

import (
	"fmt"
	"sort"
	"strings"

	"graphitti/internal/interval"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
)

// The Mark* constructors implement the annotation tab's sub-structure
// markers ("the central panel has a number of menus for marking the
// substructures of different structures"): each validates a user-supplied
// mark against the owning data object and normalises it into the shared
// coordinate space, producing an uncommitted Referent. Marks are read-only
// — they run against a pinned view and are re-validated at commit.

// MarkSequenceInterval marks the local (sequence-relative, 0-based,
// half-open) interval of a registered sequence. The mark is normalised
// into the sequence's coordinate domain, so marks on different sequences
// of the same chromosome land in the same interval tree.
func (v *View) MarkSequenceInterval(seqID string, local interval.Interval) (*Referent, error) {
	sq, typ, err := v.Sequence(seqID)
	if err != nil {
		return nil, err
	}
	dom, err := sq.ToDomain(local)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMark, err)
	}
	return &Referent{
		Kind:       IntervalReferent,
		ObjectType: typ,
		ObjectID:   seqID,
		Domain:     sq.Domain,
		Interval:   dom,
	}, nil
}

// MarkDomainInterval marks an interval directly in a coordinate domain
// (e.g. whole-chromosome coordinates), without naming a specific sequence.
// The domain must be owned by at least one registered sequence.
func (v *View) MarkDomainInterval(domain string, iv interval.Interval) (*Referent, error) {
	if !iv.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrBadMark, iv)
	}
	var owner string
	var typ ObjectType
	// seqIDs is maintained sorted, so the first covering owner is
	// deterministic without a per-call sort.
	for _, id := range v.seqIDs {
		sq := v.seqs[id]
		if sq.Domain == domain && sq.Span().Overlaps(iv) {
			owner = id
			typ = v.seqType[id]
			break
		}
	}
	if owner == "" {
		return nil, fmt.Errorf("%w: no registered sequence covers %s %v", ErrBadMark, domain, iv)
	}
	return &Referent{
		Kind:       IntervalReferent,
		ObjectType: typ,
		ObjectID:   owner,
		Domain:     domain,
		Interval:   iv,
	}, nil
}

// MarkDomainInterval marks an interval directly in a coordinate domain.
func (s *Store) MarkDomainInterval(domain string, iv interval.Interval) (*Referent, error) {
	return s.View().MarkDomainInterval(domain, iv)
}

// MarkImageRegion marks a rectangle in image-local coordinates; the mark
// is registered into the image's shared coordinate system.
func (v *View) MarkImageRegion(imageID string, local rtree.Rect) (*Referent, error) {
	im, err := v.Image(imageID)
	if err != nil {
		return nil, err
	}
	region, err := im.Region(local)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMark, err)
	}
	return &Referent{
		Kind:       RegionReferent,
		ObjectType: TypeImage,
		ObjectID:   imageID,
		Domain:     im.System,
		Region:     region.Sys,
	}, nil
}

// MarkClade marks the clade of a registered tree spanned by the given
// leaves (the full subtree under their lowest common ancestor).
func (v *View) MarkClade(treeID string, leaves ...string) (*Referent, error) {
	t, err := v.Tree(treeID)
	if err != nil {
		return nil, err
	}
	clade, err := t.Clade(leaves...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMark, err)
	}
	return &Referent{
		Kind:       CladeReferent,
		ObjectType: TypeTree,
		ObjectID:   treeID,
		Domain:     treeID,
		Keys:       clade.Leaves,
	}, nil
}

// MarkSubgraph marks the subgraph of a registered interaction graph
// induced by the given molecules.
func (v *View) MarkSubgraph(graphID string, molecules ...string) (*Referent, error) {
	g, err := v.InteractionGraph(graphID)
	if err != nil {
		return nil, err
	}
	sg, err := g.InducedSubgraph(molecules...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMark, err)
	}
	return &Referent{
		Kind:       SubgraphReferent,
		ObjectType: TypeInteraction,
		ObjectID:   graphID,
		Domain:     graphID,
		Keys:       sg.Molecules,
	}, nil
}

// MarkAlignmentBlock marks a block of a registered alignment: the given
// rows crossed with the column interval.
func (v *View) MarkAlignmentBlock(alnID string, rows []string, cols interval.Interval) (*Referent, error) {
	a, err := v.Alignment(alnID)
	if err != nil {
		return nil, err
	}
	block, err := a.Block(rows, cols)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMark, err)
	}
	keys := append([]string(nil), block.RowIDs...)
	sort.Strings(keys)
	return &Referent{
		Kind:       BlockReferent,
		ObjectType: TypeAlignment,
		ObjectID:   alnID,
		Domain:     alnID,
		Interval:   block.Cols,
		Keys:       keys,
	}, nil
}

// MarkRecords marks a set of rows of a user record table by primary key
// (the demo's "block set markers for relational records").
func (v *View) MarkRecords(table string, keys ...relstore.Value) (*Referent, error) {
	t, ok := v.recordTables.Get(table)
	if !ok {
		return nil, errNoSuchObject("record table", table)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("%w: no record keys", ErrBadMark)
	}
	strKeys := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, ok := t.rows.Get(k.Key()); !ok {
			return nil, fmt.Errorf("%w: %w: %s in %s", ErrBadMark, relstore.ErrNoSuchRow, k, table)
		}
		strKeys = append(strKeys, k.String())
	}
	sort.Strings(strKeys)
	return &Referent{
		Kind:       RecordSetReferent,
		ObjectType: TypeRecord,
		ObjectID:   table,
		Domain:     table,
		Keys:       strKeys,
	}, nil
}

// MarkObject marks a whole registered data object.
func (v *View) MarkObject(typ ObjectType, objectID string) (*Referent, error) {
	ok := false
	switch typ {
	case TypeDNA, TypeRNA, TypeProtein:
		_, present := v.seqs[objectID]
		ok = present && v.seqType[objectID] == typ
	case TypeAlignment:
		_, ok = v.alignments[objectID]
	case TypeTree:
		_, ok = v.trees[objectID]
	case TypeInteraction:
		_, ok = v.igraphs[objectID]
	case TypeImage:
		_, ok = v.images[objectID]
	default:
		_, ok = v.recordTables.Get(string(typ))
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchObject, typ, objectID)
	}
	return &Referent{
		Kind:       ObjectReferent,
		ObjectType: typ,
		ObjectID:   objectID,
		Domain:     string(typ),
		Keys:       []string{objectID},
	}, nil
}

// markKey canonicalises a referent's identity so that identical marks made
// by different users resolve to the same stored referent — the mechanism
// behind the paper's indirect relations through shared referents.
func markKey(r *Referent) string {
	var sb strings.Builder
	sb.WriteString(r.Kind.String())
	sb.WriteByte('|')
	sb.WriteString(string(r.ObjectType))
	sb.WriteByte('|')
	sb.WriteString(r.ObjectID)
	sb.WriteByte('|')
	sb.WriteString(r.Domain)
	sb.WriteByte('|')
	switch r.Kind {
	case IntervalReferent:
		fmt.Fprintf(&sb, "%d:%d", r.Interval.Lo, r.Interval.Hi)
	case RegionReferent:
		fmt.Fprintf(&sb, "%v", r.Region)
	case BlockReferent:
		fmt.Fprintf(&sb, "%d:%d|%s", r.Interval.Lo, r.Interval.Hi, strings.Join(r.Keys, ","))
	default:
		sb.WriteString(strings.Join(r.Keys, ","))
	}
	return sb.String()
}
