//go:build race

package dbscan_test

// raceEnabled reports whether the race detector instruments this build;
// the dense differential inputs are skipped under it.
const raceEnabled = true
