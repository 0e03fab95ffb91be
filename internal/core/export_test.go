package core

// The footprint helpers, for the tests of package core_test.
var (
	BenchmarkStore  = benchmarkStore
	BenchmarkShaped = benchmarkShaped
	LiveBytes       = liveBytes
)
