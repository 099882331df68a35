package vtime

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Span is a virtual duration as committed spec files write it: a
// human-readable string ("250ms", "2s", "40us") with an exact integer
// round-trip. The formatter picks the largest unit that divides the
// value, so no precision is ever lost in a committed spec file.
type Span Duration

// Dur converts a virtual duration into a Span pointer (spec literals).
func Dur(v Duration) *Span { d := Span(v); return &d }

// V returns the underlying virtual duration.
func (d Span) V() Duration { return Duration(d) }

// spanUnits is ordered for formatting (largest first) and shared by the
// parser; parse order must try the two-letter suffixes before "s".
var spanUnits = []struct {
	suffix string
	unit   Duration
}{
	{"h", Hour},
	{"m", Minute},
	{"s", Second},
	{"ms", Millisecond},
	{"us", Microsecond},
}

// String renders the span exactly, in the largest unit that divides it.
func (d Span) String() string {
	v := Duration(d)
	if v == 0 {
		return "0s"
	}
	sign := ""
	if v < 0 {
		sign, v = "-", -v
	}
	for _, u := range spanUnits {
		if v%u.unit == 0 {
			return fmt.Sprintf("%s%d%s", sign, v/u.unit, u.suffix)
		}
	}
	return fmt.Sprintf("%s%dus", sign, v)
}

// parseSpan parses the exact unit string. Its error texts name the
// scenario layer: spec files are the only input Spans are parsed from, and
// the CLIs pin these messages.
func parseSpan(s string) (Duration, error) {
	// Two-letter suffixes first: "5ms" also ends in "s".
	for _, suffix := range []string{"us", "ms", "h", "m", "s"} {
		digits, ok := strings.CutSuffix(s, suffix)
		if !ok {
			continue
		}
		// ParseInt takes the one optional sign itself; a second one
		// ("--5s", "-+5s") is a syntax error there.
		n, err := strconv.ParseInt(digits, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("scenario: bad duration %q: %v", s, err)
		}
		var unit Duration
		for _, u := range spanUnits {
			if u.suffix == suffix {
				unit = u.unit
			}
		}
		v := Duration(n) * unit
		if v/unit != Duration(n) {
			return 0, fmt.Errorf("scenario: bad duration %q: overflows the virtual clock", s)
		}
		return v, nil
	}
	return 0, fmt.Errorf("scenario: bad duration %q (want <int><unit>, unit in us/ms/s/m/h)", s)
}

// MarshalJSON renders the span as its exact unit string.
func (d Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON parses the exact unit string.
func (d *Span) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"250ms\": %v", err)
	}
	v, err := parseSpan(s)
	if err != nil {
		return err
	}
	*d = Span(v)
	return nil
}
