package history

import (
	"testing"
	"unsafe"
)

// TestCellSizes pins the size of this package's per-delivery cells: a field
// added later must fail here, not show up in a heap profile.
func TestCellSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"Cell: rank, message, external pointer, arrival, serial — one per arrival held in a window, moved by every insertion", unsafe.Sizeof(Cell{}), 48},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}
