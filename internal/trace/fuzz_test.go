package trace

import (
	"slices"
	"testing"

	"defined/internal/vtime"
)

// eventsFrom decodes data as a target span (two bytes, in microseconds)
// and then (gap, kind) pairs: gap is the time since the previous event, so
// the trace is sorted, and kind picks the type and one of eight links.
// Gaps of 0 are common, so many events share an instant.
func eventsFrom(data []byte) ([]Event, vtime.Duration) {
	if len(data) < 2 {
		return nil, 0
	}
	target := vtime.Duration(data[0])<<8 | vtime.Duration(data[1])
	var evs []Event
	at := vtime.Time(0)
	for data = data[2:]; len(data) >= 2; data = data[2:] {
		at = at.Add(vtime.Duration(data[0]%16) * vtime.Duration(1+int(data[0]>>4)*1000))
		k := int(data[1])
		evs = append(evs, Event{At: at, Type: EventType(k & 1), A: (k >> 1) % 4, B: 4 + (k>>3)%2})
	}
	return evs, target
}

// FuzzCompress holds Compress to its contract on sorted input: the output
// is non-decreasing, each link's events are strictly increasing, the last
// event lies within target plus one microsecond per event that follows an
// earlier one of its link (the separations Compress may add), and the
// (Type, A, B) sequence is the input's after sanitize, so nothing is
// invented or lost.
func FuzzCompress(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 1, 0, 0, 0, 1, 1, 2})                                         // one instant, collapsed onto 3 µs
	f.Add([]byte{0, 10, 5, 0, 0, 1, 0, 0, 0, 1, 32, 0, 0, 1, 7, 2, 0, 3})                     // interleaved flaps of one link
	f.Add([]byte{255, 255, 1, 0, 240, 1, 3, 0, 0, 0, 17, 1, 0, 1, 255, 0, 15, 1, 0, 4, 0, 5}) // long gaps, repeated downs
	f.Fuzz(func(t *testing.T, data []byte) {
		in, target := eventsFrom(data)
		out := Compress(slices.Clone(in), target)
		type tab struct {
			t    EventType
			a, b int
		}
		seq := func(evs []Event) []tab {
			var s []tab
			for _, e := range evs {
				s = append(s, tab{e.Type, e.A, e.B})
			}
			return s
		}
		if got, want := seq(out), seq(sanitize(slices.Clone(in))); !slices.Equal(got, want) {
			t.Fatalf("Compress kept %v, sanitize keeps %v", got, want)
		}
		bound := vtime.Time(target)
		seen := map[linkPair]bool{}
		for _, e := range in {
			if k := (linkPair{e.A, e.B}); seen[k] {
				bound++
			} else {
				seen[k] = true
			}
		}
		last := map[linkPair]vtime.Time{}
		for i, e := range out {
			if i > 0 && e.At < out[i-1].At {
				t.Fatalf("event %d at %v before event %d at %v", i, e.At, i-1, out[i-1].At)
			}
			if e.At < 0 || e.At > bound {
				t.Fatalf("event %d at %v outside [0, %v]", i, e.At, bound)
			}
			k := linkPair{e.A, e.B}
			if lt, ok := last[k]; ok && e.At <= lt {
				t.Fatalf("event %d of link %d-%d at %v, not after the link's previous at %v", i, e.A, e.B, e.At, lt)
			}
			last[k] = e.At
		}
	})
}
