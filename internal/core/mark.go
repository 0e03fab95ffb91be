package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"graphitti/internal/biodata/seq"
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
	// The least covering ID, so the owner does not depend on the map's
	// order.
	var owner *seq.Sequence
	v.registry[kindSequence].EachValue(func(o any) bool {
		sq := o.(*seq.Sequence)
		if sq.Domain == domain && sq.Span().Overlaps(iv) && (owner == nil || sq.ID < owner.ID) {
			owner = sq
		}
		return true
	})
	if owner == nil {
		return nil, fmt.Errorf("%w: no registered sequence covers %s %v", ErrBadMark, domain, iv)
	}
	return &Referent{
		Kind:       IntervalReferent,
		ObjectType: seqObjectType(owner.Kind),
		ObjectID:   owner.ID,
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
	sys := region.Sys
	return &Referent{
		Kind:       RegionReferent,
		ObjectType: TypeImage,
		ObjectID:   imageID,
		Domain:     im.System,
		Region:     &sys,
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
	keys := slices.Clone(block.RowIDs)
	slices.Sort(keys)
	keys = slices.Compact(keys)
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
	t, err := lookup[recordTable](v, kindTable, table)
	if err != nil {
		return nil, err
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
	slices.Sort(strKeys)
	strKeys = slices.Compact(strKeys)
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
	k, name := objectKind(typ), objectID
	if k == kindTable {
		name = string(typ) // a table takes any ID: its rows are marked by MarkRecords
	}
	o, ok := v.registry[k].Get(name)
	if ok && k == kindSequence {
		ok = objectType(k, o) == typ
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
// behind the paper's indirect relations through shared referents. Every
// variable-length field is length-prefixed, so distinct marks never share
// a key whatever their names and keys hold (rows "a,b" are not rows a and
// b).
func markKey(r *Referent) string {
	k := []byte{byte(r.Kind)}
	for _, f := range [...]string{string(r.ObjectType), r.ObjectID, r.Domain} {
		k = appendField(k, f)
	}
	switch r.Kind {
	case IntervalReferent:
		k = binary.AppendVarint(binary.AppendVarint(k, r.Interval.Lo), r.Interval.Hi)
	case RegionReferent:
		if r.Region != nil {
			k = fmt.Appendf(k, "%v", *r.Region)
		}
	case BlockReferent:
		k = binary.AppendVarint(binary.AppendVarint(k, r.Interval.Lo), r.Interval.Hi)
		fallthrough
	default:
		for _, key := range r.Keys {
			k = appendField(k, key)
		}
	}
	return string(k)
}

// appendField appends f to k, prefixed by its length.
func appendField(k []byte, f string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(f))), f...)
}
