package persist

// The tests are package persist_test: they build stores with
// internal/workload, which imports this package.

// Ops is the snapshot's op sequence in load order, for the serial oracle
// the one-session load is held to.
func (snap *Snapshot) Ops(yield func(Op) bool) { snap.ops(yield) }

// ExportView is the exporter itself, over a view the test pinned.
var ExportView = exportView

// The binary form's code tables.
var DCElements, ObjectTypes = dcElements, objectTypes
