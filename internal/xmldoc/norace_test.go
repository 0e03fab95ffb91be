//go:build !race

package xmldoc

const raceEnabled = false
