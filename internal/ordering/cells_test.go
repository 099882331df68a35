package ordering

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
		{"Key: four 8-byte fields, two node ids, the class — recordings, logs and every comparison a rank tie decides", unsafe.Sizeof(Key{}), 48},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}
