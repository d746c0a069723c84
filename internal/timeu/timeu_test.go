package timeu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloorDiv(t *testing.T) {
	cases := []struct {
		a, b Time
		want int64
	}{
		{0, 5, 0},
		{4, 5, 0},
		{5, 5, 1},
		{9, 5, 1},
		{10, 5, 2},
		{-1, 5, -1},
		{-4, 5, -1},
		{-5, 5, -1},
		{-6, 5, -2},
		{-10, 5, -2},
		{7, 1, 7},
		{-7, 1, -7},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct {
		a, b Time
		want int64
	}{
		{0, 5, 0},
		{1, 5, 1},
		{4, 5, 1},
		{5, 5, 1},
		{6, 5, 2},
		{-1, 5, 0},
		{-4, 5, 0},
		{-5, 5, -1},
		{-6, 5, -1},
		{-10, 5, -2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorCeilDivPanicOnBadDivisor(t *testing.T) {
	for _, f := range []func(){
		func() { FloorDiv(1, 0) },
		func() { CeilDiv(1, 0) },
		func() { FloorDiv(1, -3) },
		func() { CeilDiv(1, -3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for non-positive divisor")
				}
			}()
			f()
		}()
	}
}

// Property: FloorDiv and CeilDiv agree with the float definitions wherever
// floats are exact, and satisfy floor ≤ ceil ≤ floor+1.
func TestDivProperties(t *testing.T) {
	prop := func(a int32, b int32) bool {
		bb := Time(b)
		if bb <= 0 {
			bb = -bb + 1
		}
		aa := Time(a)
		fl := FloorDiv(aa, bb)
		ce := CeilDiv(aa, bb)
		wantFl := int64(math.Floor(float64(aa) / float64(bb)))
		wantCe := int64(math.Ceil(float64(aa) / float64(bb)))
		if fl != wantFl || ce != wantCe {
			return false
		}
		if ce < fl || ce > fl+1 {
			return false
		}
		// Defining inequalities of mathematical floor/ceil division.
		if Time(fl)*bb > aa || Time(fl+1)*bb <= aa {
			return false
		}
		if Time(ce)*bb < aa || Time(ce-1)*bb >= aa {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestFloorCeilTo(t *testing.T) {
	if got := FloorTo(17, 5); got != 15 {
		t.Errorf("FloorTo(17,5) = %d, want 15", got)
	}
	if got := FloorTo(-17, 5); got != -20 {
		t.Errorf("FloorTo(-17,5) = %d, want -20", got)
	}
	if got := CeilTo(17, 5); got != 20 {
		t.Errorf("CeilTo(17,5) = %d, want 20", got)
	}
	if got := CeilTo(-17, 5); got != -15 {
		t.Errorf("CeilTo(-17,5) = %d, want -15", got)
	}
}

func TestGCDLCM(t *testing.T) {
	cases := []struct{ a, b, gcd, lcm Time }{
		{6, 4, 2, 12},
		{5, 7, 1, 35},
		{0, 9, 9, 0},
		{10, 10, 10, 10},
		{-6, 4, 2, 12},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.gcd {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.gcd)
		}
		if got := LCM(c.a, c.b); got != c.lcm {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.lcm)
		}
	}
}

func TestHyperperiod(t *testing.T) {
	// The WATERS period set used by the paper.
	periods := []Time{
		1 * Millisecond, 2 * Millisecond, 5 * Millisecond, 10 * Millisecond,
		20 * Millisecond, 50 * Millisecond, 100 * Millisecond, 200 * Millisecond,
	}
	if got, want := Hyperperiod(periods), 200*Millisecond; got != want {
		t.Errorf("Hyperperiod = %v, want %v", got, want)
	}
	if got := Hyperperiod(nil); got != 1 {
		t.Errorf("Hyperperiod(nil) = %v, want 1", got)
	}
}

func TestHyperperiodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive period")
		}
	}()
	Hyperperiod([]Time{0})
}

func TestLCMChecked(t *testing.T) {
	if got, ok := LCMChecked(6, 4); !ok || got != 12 {
		t.Errorf("LCMChecked(6,4) = %v,%v, want 12,true", got, ok)
	}
	if got, ok := LCMChecked(0, 9); !ok || got != 0 {
		t.Errorf("LCMChecked(0,9) = %v,%v, want 0,true", got, ok)
	}
	if _, ok := LCMChecked(Infinity-1, Infinity-2); ok {
		t.Error("LCMChecked of two near-Infinity coprimes reported no overflow")
	}
}

func TestHyperperiodChecked(t *testing.T) {
	periods := []Time{
		1 * Millisecond, 2 * Millisecond, 5 * Millisecond, 10 * Millisecond,
		20 * Millisecond, 50 * Millisecond, 100 * Millisecond, 200 * Millisecond,
	}
	if got, err := HyperperiodChecked(periods, 0); err != nil || got != 200*Millisecond {
		t.Errorf("HyperperiodChecked = %v,%v, want 200ms,nil", got, err)
	}
	// Bounded by a horizon: the same set fits in 1s but not in 100ms.
	if got, err := HyperperiodChecked(periods, Second); err != nil || got != 200*Millisecond {
		t.Errorf("HyperperiodChecked(horizon=1s) = %v,%v, want 200ms,nil", got, err)
	}
	if _, err := HyperperiodChecked(periods, 100*Millisecond); err == nil {
		t.Error("HyperperiodChecked(horizon=100ms) accepted a 200ms hyperperiod")
	}
	// Many coprime periods overflow int64 nanoseconds multiplicatively;
	// the checked form reports it instead of wrapping or panicking.
	var coprimes []Time
	for _, p := range []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43} {
		coprimes = append(coprimes, Time(p)*Millisecond)
	}
	if _, err := HyperperiodChecked(coprimes, 0); err == nil {
		t.Error("HyperperiodChecked accepted an overflowing coprime period set")
	}
	if _, err := HyperperiodChecked([]Time{0}, 0); err == nil {
		t.Error("HyperperiodChecked accepted a non-positive period")
	}
	if got, err := HyperperiodChecked(nil, 0); err != nil || got != 1 {
		t.Errorf("HyperperiodChecked(nil) = %v,%v, want 1,nil", got, err)
	}
}

func TestLCMOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for LCM overflow")
		}
	}()
	LCM(Infinity-1, Infinity-2)
}

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Time
	}{
		{"5ms", 5 * Millisecond},
		{"5 ms", 5 * Millisecond},
		{"200us", 200 * Microsecond},
		{"1s", Second},
		{"10min", 10 * Minute},
		{"3ns", 3},
		{"4.75us", 4750},
		{"0.5ms", 500 * Microsecond},
		{".5ms", 500 * Microsecond},
		{"-3ms", -3 * Millisecond},
		{"-0.5ms", -500 * Microsecond},
		{"1234.567ms", 1234567 * Microsecond},
		{"0.000000001s", 1},
		{"+2.ms", 2 * Millisecond},
		{"007ms", 7 * Millisecond},
		{"9223372036854775807ns", math.MaxInt64},
		{"-9223372036854775808ns", math.MinInt64},
		{"9223372036.854775807s", math.MaxInt64},
		{"-9223372036.854775808s", math.MinInt64},
		{"153722867min", 153722867 * Minute},
		{"-153722867.2806s", -153722867280600000},
		// Infinity's value renders as "inf", which must parse back.
		{"4611686018427387903ns", Infinity},
		{"inf", Infinity},
		{" inf ", Infinity},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %d, want %d", c.in, got, c.want)
		}
		if round, err := Parse(got.String()); err != nil || round != got {
			t.Errorf("Parse(%q) = %v does not round-trip: %d, %v", c.in, got, round, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "5", "ms", "x5ms", "5 kg", "1.2.3ms", "1.xms", "0.0000000001s", "1e3ms",
		// Malformed signs and digitless numbers.
		".ms", "-.ms", "--1.5ms", "-+1ms", "+-1.5ms", "- 5ms",
		// Values whose integer or fractional path leaves int64: each of
		// these used to wrap silently.
		"200000000000min", "-200000000000min", "9223372036854775807s",
		"10000000000.5s", "9223372036854775808ns", "-9223372036854775809ns",
		"9223372036.854775808s", "-9223372036.854775809s", "153722868min",
		"18446744073709551616ns", "99999999999999999999ms",
		// Only the exact spelling String gives Infinity is accepted.
		"-inf", "+inf", "Inf", "infms",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5 * Millisecond, "5ms"},
		{200 * Microsecond, "200us"},
		{4750, "4.75us"},
		{0, "0ms"},
		{-3 * Millisecond, "-3ms"},
		{Infinity, "inf"},
		{200*Millisecond + 1209*Microsecond/10, "200.1209ms"},
		{-1500 * Microsecond, "-1.5ms"},
		{math.MinInt64, "-9223372036854.775808ms"},
		{math.MaxInt64, "9223372036854.775807ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustParse("bogus")
}

func TestMinMaxAbs(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
	if Abs(-7) != 7 || Abs(7) != 7 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
}

func TestUnitConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Milliseconds() != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", d.Milliseconds())
	}
	if d.Microseconds() != 1500 {
		t.Errorf("Microseconds = %v, want 1500", d.Microseconds())
	}
	if (2 * Second).Seconds() != 2 {
		t.Errorf("Seconds = %v, want 2", (2 * Second).Seconds())
	}
}

// Property: round-tripping integral microsecond values through
// String/Parse is the identity.
func TestStringParseRoundTrip(t *testing.T) {
	prop := func(us int32) bool {
		d := Time(us) * Microsecond
		got, err := Parse(d.String())
		return err == nil && got == d
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
