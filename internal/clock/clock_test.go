package clock

import (
	"testing"
	"time"
)

// NowNS must read as wall time (exports and bundles print it as such)
// and never step backwards.
func TestNowNSIsUnixShapedAndMonotonic(t *testing.T) {
	if d := time.Duration(time.Now().UnixNano() - NowNS()); d < -time.Minute || d > time.Minute {
		t.Errorf("NowNS is %v away from the wall clock", d)
	}
	prev := NowNS()
	for i := 0; i < 1000; i++ {
		now := NowNS()
		if now < prev {
			t.Fatalf("clock stepped back: %d after %d", now, prev)
		}
		prev = now
	}
}
