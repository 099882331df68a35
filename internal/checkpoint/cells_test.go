package checkpoint

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
		{"marks: the two journal positions of an MI checkpoint, one per speculative delivery, no pointers", unsafe.Sizeof(marks{}), 16},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}
