package persist

import (
	"errors"

	"graphitti/internal/core"
)

// The tests are package persist_test: they build stores with
// internal/workload, which imports this package.

// Ops is the snapshot's op sequence in load order, for the serial oracle
// the one-session load is held to.
func (snap *Snapshot) Ops(yield func(Op) bool) {
	stop := errors.New("stop")
	snap.Each(func(op Op) error {
		if !yield(op) {
			return stop
		}
		return nil
	})
}

// The binary form's code tables.
var DCElements, ObjectTypes = dcElements, objectTypes

// DCByName returns the Dublin Core code table in the order records write
// their elements in.
func DCByName() (names []string, codes []uint64) {
	for _, e := range dcByName {
		names, codes = append(names, e.name), append(codes, e.code)
	}
	return names, codes
}

// AppendAnnotation is an annotation record written from its dump, and
// AppendViewAnnotation the record a checkpoint writes from the committed
// annotation of a pinned view.
var AppendAnnotation = appendAnnotation

func AppendViewAnnotation(b []byte, v *core.View, a *core.Annotation) ([]byte, error) {
	return appendAnnotationRecord(b, &viewAnnotation{v: v, a: a})
}
