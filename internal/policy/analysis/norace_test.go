//go:build !race

package analysis

const raceEnabled = false
