package msg

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
		{"Message: one per packet in flight, in a window or awaiting unsend; Kind and the refcount share a word, Origin and Chain another, so a slab of 64 (6,144 B) fills its size class exactly", unsafe.Sizeof(Message{}), 96},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}
