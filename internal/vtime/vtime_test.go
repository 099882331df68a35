package vtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Second)
	if t1 != Time(3_000_000) {
		t.Fatalf("Add: got %d, want 3000000", t1)
	}
	if d := t1.Sub(t0); d != 3*Second {
		t.Fatalf("Sub: got %v, want 3s", d)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatalf("Before/After inconsistent for %v, %v", t0, t1)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	d := 1500 * Millisecond
	if got := d.Seconds(); got != 1.5 {
		t.Fatalf("Seconds: got %v, want 1.5", got)
	}
	if got := d.Milliseconds(); got != 1500 {
		t.Fatalf("Milliseconds: got %v, want 1500", got)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{250 * Millisecond, "250.000ms"},
		{42 * Microsecond, "42µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String() = %q", got)
	}
	if got := Time(1500000).String(); got != "1.500000s" {
		t.Errorf("Time.String() = %q", got)
	}
}

func TestStdConversions(t *testing.T) {
	if got := FromStd(2 * time.Millisecond); got != 2*Millisecond {
		t.Fatalf("FromStd: got %v", got)
	}
	if got := (5 * Millisecond).Std(); got != 5*time.Millisecond {
		t.Fatalf("Std: got %v", got)
	}
	if got := Time(1_000_000).Std(); got != time.Second {
		t.Fatalf("Time.Std: got %v", got)
	}
}

func TestGroupOf(t *testing.T) {
	iv := BeaconInterval
	cases := []struct {
		t    Time
		want uint64
	}{
		{0, 0},
		{Time(iv) - 1, 0},
		{Time(iv), 1},
		{Time(3*iv) + 5, 3},
		{-5, 0},
	}
	for _, c := range cases {
		if got := GroupOf(c.t, iv); got != c.want {
			t.Errorf("GroupOf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestGroupStartInverse(t *testing.T) {
	iv := 250 * Millisecond
	for g := uint64(0); g < 100; g++ {
		start := GroupStart(g, iv)
		if got := GroupOf(start, iv); got != g {
			t.Fatalf("GroupOf(GroupStart(%d)) = %d", g, got)
		}
		if g > 0 {
			if got := GroupOf(start-1, iv); got != g-1 {
				t.Fatalf("GroupOf(start-1) = %d, want %d", got, g-1)
			}
		}
	}
}

func TestGroupOfPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive interval")
		}
	}()
	GroupOf(0, 0)
}

// Property: group numbers are monotone non-decreasing in time.
func TestGroupMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		ta, tb := Time(a), Time(b)
		if ta > tb {
			ta, tb = tb, ta
		}
		return GroupOf(ta, BeaconInterval) <= GroupOf(tb, BeaconInterval)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	if got := (100 * Millisecond).Scale(0.5); got != 50*Millisecond {
		t.Fatalf("Scale(0.5) = %v", got)
	}
	if got := (100 * Millisecond).Scale(2); got != 200*Millisecond {
		t.Fatalf("Scale(2) = %v", got)
	}
}

// Std converts the virtual timestamp to a time.Duration offset, which is
// convenient when formatting with the standard library.
func (t Time) Std() time.Duration { return time.Duration(t) * time.Microsecond }

// Std converts the virtual duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// Scale multiplies the duration by a dimensionless factor, rounding toward
// zero. It is used for jitter and backoff computations.
func (d Duration) Scale(f float64) Duration { return Duration(float64(d) * f) }

// FromStd converts a standard library duration to virtual microseconds.
func FromStd(d time.Duration) Duration { return Duration(d / time.Microsecond) }
