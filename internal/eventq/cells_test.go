package eventq

import (
	"testing"
	"unsafe"
)

// TestCellSizes pins the package comment's arithmetic: 24 B of heap cell
// plus 32 B of slab slot per queued event. Growing either grows every run's
// live heap and every sift's cache footprint, so a field added to one has
// to come off the other.
func TestCellSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"cell: one heap entry, the (at, seq) key inline plus its slot index", unsafe.Sizeof(cell{}), 24},
		{"slot: one slab entry, generation, heap position and the payload pointer pair", unsafe.Sizeof(slot{}), 32},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}
