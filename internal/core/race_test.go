//go:build race

package core

// raceEnabled reports that this test binary was built with -race, under
// which sync.Pool drops a random share of what it is given, so a byte
// budget that counts on a pool hit only holds in normal builds.
const raceEnabled = true
