//go:build race

package xmldoc

// raceEnabled: under the race detector a sync.Pool drops a quarter of what
// is put back, so the scratch a document is built in is not always reused
// and allocation counts do not hold.
const raceEnabled = true
