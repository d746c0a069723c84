package timeu

import (
	"math"
	"math/big"
	"regexp"
	"strings"
	"testing"
)

// FuzzParse hardens the time parser against arbitrary input: it must
// never panic, an accepted value must equal an exact math/big
// evaluation of the input, every well-formed input whose exact value
// fits in a Time within nanosecond precision must be accepted, and on
// success the value must re-render and re-parse to itself (canonical
// fixed point).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"5ms", "4.75us", "-3ms", "0.000000001s", "10min", "", "ms",
		"1.2.3ms", "9223372036854775807ns", "1e3ms", " 42 us ", ".5s",
		"200000000000min", "-200000000000min", "9223372036854775807s",
		"10000000000.5s", "-9223372036854775808ns", "9223372036.854775808s",
		"--1.5ms", "+.5ms", ".ms", "153722867.2806min",
		"4611686018427387903ns", "4611686018.427387903s", "inf", "-inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(s)
		exact, fits := exactNanos(s)
		if err != nil {
			if fits {
				t.Fatalf("Parse(%q) rejected a value that fits (%v ns): %v", s, exact, err)
			}
			return
		}
		if exact == nil || !exact.IsInt() || exact.Num().Cmp(big.NewInt(int64(d))) != 0 {
			t.Fatalf("Parse(%q) = %d ns, exact value %v", s, int64(d), exact)
		}
		round, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %v, but its String %q does not re-parse: %v", s, d, d.String(), err)
		}
		if round != d {
			t.Fatalf("Parse(%q) = %v, round-trips to %v", s, d, round)
		}
	})
}

var numberRE = regexp.MustCompile(`^([+-]?)([0-9]*)(?:\.([0-9]*))?$`)

// exactNanos evaluates s exactly in nanoseconds with math/big under
// Parse's grammar, or returns nil if s is not a number with a unit or
// "inf". fits reports that the value is a Time Parse must accept: its
// fractional digits stay within nanosecond precision for the unit and
// it lies in the int64 range.
func exactNanos(s string) (exact *big.Rat, fits bool) {
	s = strings.TrimSpace(s)
	if s == "inf" {
		return new(big.Rat).SetInt64(int64(Infinity)), true
	}
	for _, u := range []struct {
		suffix string
		ns     int64
	}{{"min", 60e9}, {"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}} {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		m := numberRE.FindStringSubmatch(strings.TrimSpace(num))
		if m == nil || m[2] == "" && m[3] == "" {
			return nil, false
		}
		digits, ok := new(big.Int).SetString("0"+m[2]+m[3], 10)
		if !ok {
			return nil, false
		}
		digits.Mul(digits, big.NewInt(u.ns))
		if m[1] == "-" {
			digits.Neg(digits)
		}
		scale := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(len(m[3]))), nil)
		exact = new(big.Rat).SetFrac(digits, scale)
		precise := 0 // decimal digits below the unit that are still whole nanoseconds
		for ns := u.ns; ns%10 == 0; ns /= 10 {
			precise++
		}
		inRange := exact.IsInt() &&
			exact.Num().Cmp(big.NewInt(math.MaxInt64)) <= 0 &&
			exact.Num().Cmp(big.NewInt(math.MinInt64)) >= 0
		return exact, len(m[3]) <= precise && inRange
	}
	return nil, false
}
