//go:build !race

package dbscan_test

const raceEnabled = false
