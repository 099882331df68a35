// Package vtime provides the virtual-time base used across the DEFINED
// reproduction. All simulated clocks, link delays, timer deadlines and
// beacon schedules are expressed as vtime.Time (microseconds since the start
// of the run) so that every component advances time deterministically.
//
// DEFINED runs control-plane software in virtual time (paper §3): timers
// expire against a counter advanced on beacon receipt rather than against
// the wall clock, which is what makes timer events reproducible.
package vtime

import (
	"fmt"
	"time"
)

// Time is an absolute virtual timestamp in microseconds since the start of
// the run. The zero value is the beginning of simulated time.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
	Day         Duration = 24 * Hour
)

// BeaconInterval is the default spacing between beacon broadcasts. The paper
// uses one beacon every 250 ms, corresponding to one unit of virtual time
// for the timer subsystem (§3).
const BeaconInterval = 250 * Millisecond

// BaseProcessing is the modeled application processing cost of one
// message: what DEFINED-RB charges per delivery in virtual time and what
// DEFINED-LS counts per delivery in a step's response time.
const BaseProcessing = 100 * Microsecond

// Never is a sentinel deadline that is later than any reachable timestamp.
const Never = Time(1<<63 - 1)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the timestamp expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Std converts the virtual timestamp to a time.Duration offset, which is
// convenient when formatting with the standard library.
func (t Time) Std() time.Duration { return time.Duration(t) * time.Microsecond }

// String renders the timestamp as seconds with microsecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Seconds returns the duration expressed in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration expressed in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts the virtual duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second || d <= -Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// Scale multiplies the duration by a dimensionless factor, rounding toward
// zero. It is used for jitter and backoff computations.
func (d Duration) Scale(f float64) Duration { return Duration(float64(d) * f) }

// FromStd converts a standard library duration to virtual microseconds.
func FromStd(d time.Duration) Duration { return Duration(d / time.Microsecond) }

// GroupOf returns the beacon group number that timestamp t falls into given
// a beacon interval. Group numbers are strictly increasing with time; group
// g spans [g*interval, (g+1)*interval).
func GroupOf(t Time, interval Duration) uint64 {
	if interval <= 0 {
		panic("vtime: non-positive beacon interval")
	}
	if t < 0 {
		return 0
	}
	return uint64(int64(t) / int64(interval))
}

// GroupStart returns the timestamp at which group g begins.
func GroupStart(g uint64, interval Duration) Time {
	return Time(int64(g) * int64(interval))
}
