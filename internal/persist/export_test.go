package persist

// The tests are package persist_test: they build stores with
// internal/workload, which imports this package. These are the two
// unexported halves of LoadWith the batch ≡ serial oracle needs.
var (
	LoadWithCommit = loadWith
	CommitBatch    = commitBatch
)

// ExportView is the exporter itself, over a view the test pinned.
var ExportView = exportView
