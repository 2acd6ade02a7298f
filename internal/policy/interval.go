package policy

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// Interval is a signed value-range fact: the value is proven to lie in
// [Lo, Hi]. The full range is "top" (no information); a constant is an
// interval with one value.
type Interval struct {
	Lo, Hi int64
}

// Top is the interval carrying no information.
var Top = Interval{math.MinInt64, math.MaxInt64}

// Const returns the singleton interval {v}.
func Const(v int64) Interval { return Interval{v, v} }

// IsTop reports whether the interval carries no information.
func (i Interval) IsTop() bool { return i == Top }

// IsConst reports whether the interval is a single value.
func (i Interval) IsConst() bool { return i.Lo == i.Hi }

// Within reports whether the interval lies inside [lo, hi].
func (i Interval) Within(lo, hi int64) bool { return i.Lo >= lo && i.Hi <= hi }

// Join returns the smallest interval containing both.
func (i Interval) Join(o Interval) Interval {
	return Interval{min(i.Lo, o.Lo), max(i.Hi, o.Hi)}
}

// String renders "top", a constant, or "[lo,hi]".
func (i Interval) String() string {
	switch {
	case i.IsTop():
		return "top"
	case i.IsConst():
		return fmt.Sprintf("%d", i.Lo)
	default:
		return fmt.Sprintf("[%d,%d]", i.Lo, i.Hi)
	}
}

// MarshalJSON renders the interval as its String form, keeping reports
// (and their golden files) compact and diffable.
func (i Interval) MarshalJSON() ([]byte, error) { return json.Marshal(i.String()) }

// UnmarshalJSON parses the String form back ("top", "42", "[lo,hi]").
func (i *Interval) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if s == "top" {
		*i = Top
		return nil
	}
	if n, err := fmt.Sscanf(s, "[%d,%d]", &i.Lo, &i.Hi); err == nil && n == 2 {
		return nil
	}
	if n, err := fmt.Sscanf(s, "%d", &i.Lo); err == nil && n == 1 {
		i.Hi = i.Lo
		return nil
	}
	return fmt.Errorf("policy: bad interval %q", s)
}

// intervalALU is the interval transfer function for scalar ALU ops.
// Exact for constant operands (it runs the VM's ALU); otherwise sound
// rules are applied for non-negative ranges and top is returned when the
// unsigned/signed mismatch could bite.
func intervalALU(op Op, a, b Interval) Interval {
	if a.IsConst() && b.IsConst() {
		return Const(int64(ALU(op, uint64(a.Lo), uint64(b.Lo))))
	}
	nonneg := a.Lo >= 0 && b.Lo >= 0
	switch op {
	case OpAddImm, OpAddReg:
		lo, okL := addOv(a.Lo, b.Lo)
		hi, okH := addOv(a.Hi, b.Hi)
		if okL && okH {
			return Interval{lo, hi}
		}
	case OpSubImm, OpSubReg:
		if nonneg && a.Lo >= b.Hi {
			// Cannot wrap below zero.
			return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
	case OpMulImm, OpMulReg:
		if nonneg {
			if hi, ok := mulOv(a.Hi, b.Hi); ok {
				return Interval{a.Lo * b.Lo, hi}
			}
		}
	case OpDivImm, OpDivReg:
		if nonneg {
			lo := int64(0)
			if b.IsConst() && b.Lo > 0 {
				lo = a.Lo / b.Lo
			}
			return Interval{lo, a.Hi} // division by zero yields 0
		}
	case OpModImm, OpModReg:
		if nonneg {
			// r < b unless b == 0, in which case r == a.
			return Interval{0, max(a.Hi, b.Hi-1, 0)}
		}
	case OpAndImm, OpAndReg:
		if nonneg {
			return Interval{0, min(a.Hi, b.Hi)}
		}
		if b.Lo >= 0 {
			return Interval{0, b.Hi} // mask with non-negative bound
		}
	case OpOrImm, OpOrReg, OpXorImm, OpXorReg:
		if nonneg {
			if n := bits.Len64(uint64(max(a.Hi, b.Hi))); n < 63 {
				return Interval{0, int64(1<<n) - 1}
			}
		}
	case OpLshImm, OpLshReg:
		if nonneg && b.IsConst() {
			s := uint64(b.Lo) & 63
			if s < 63 && a.Hi <= math.MaxInt64>>s {
				return Interval{a.Lo << s, a.Hi << s}
			}
		}
	case OpRshImm, OpRshReg, OpArshImm, OpArshReg:
		if nonneg && b.IsConst() {
			s := uint64(b.Lo) & 63
			return Interval{a.Lo >> s, a.Hi >> s}
		}
	}
	return Top
}

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}
