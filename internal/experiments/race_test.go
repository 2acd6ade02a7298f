//go:build race

package experiments

// raceEnabled reports that this test binary was built with -race. The
// detector slows the tiers and lock paths a wall-clock gate compares by
// different factors, so a measured ratio says nothing about the code
// there; those gates hold in normal builds and skip here.
const raceEnabled = true
