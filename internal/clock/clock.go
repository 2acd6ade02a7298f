// Package clock is the one time source of the stack: locks stamp events
// with it, policies read it through now_ns, the profiler cuts windows
// with it, and livepatch and the flight recorder time drains and bundles
// with it, so values from any two of them compare. Tests inject their own
// clocks over it (locks SetClock, Config.Clock fields).
package clock

import "time"

// base carries both a wall and a monotonic reading of process start.
var (
	base   = time.Now()
	baseNS = base.UnixNano()
)

// NowNS returns process-start Unix nanoseconds plus monotonic elapsed
// time. Values are Unix-nanosecond-shaped (exports and bundles read as
// wall time) but never step backwards, and a read is one monotonic clock
// call where time.Now makes two.
func NowNS() int64 { return baseNS + int64(time.Since(base)) }
