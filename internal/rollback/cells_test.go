package rollback

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
		{"pendingArrival: the window's cell (rank, not key), two times, a sequence, two flags — an insertion moves a dozen", unsafe.Sizeof(pendingArrival{}), 80},
		{"sentRec: one per send whose cause has not retired, hundreds of thousands live through a boot storm; its store cell index sits in the padding after dropped", unsafe.Sizeof(sentRec{}), 40},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}
