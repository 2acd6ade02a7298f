//go:build race

package analysis

// raceEnabled reports that this test binary was built with -race, under
// which sync.Pool drops a random share of what it is given, so the walk's
// pooled state array is sometimes made again.
const raceEnabled = true
