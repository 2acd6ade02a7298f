//go:build ignore

// genjit regenerates jit_churn.schedule.json: the canned schedule the
// JIT-churn regression test replays. It records one jit-churn run —
// JIT-tier policies on a blocking ShflLock under forced parks/delays
// while the attachment is livepatch-flipped between tiers — proving
// the same seed replays byte-identically through the JIT tier's
// decision trees. Run from the repo root:
//
//	go run ./internal/schedfuzz/testdata/genjit.go
package main

import (
	"fmt"
	"os"

	"concord/internal/schedfuzz"
)

func main() {
	h, err := schedfuzz.NewHarness(schedfuzz.HarnessConfig{
		Seed:        20210601, // same vintage as the tombstone schedule
		Target:      "jit-churn",
		Params:      map[string]int64{"workers": 2, "ops": 120, "flips": 6},
		ScheduleOut: "internal/schedfuzz/testdata/jit_churn.schedule.json",
		Out:         os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := h.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.Failed {
		fmt.Fprintln(os.Stderr, "unexpected failure on fixed code:", res.Err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", res.SchedulePath)
}
