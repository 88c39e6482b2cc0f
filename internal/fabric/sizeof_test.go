package fabric

import (
	"testing"
	"unsafe"

	"repro/internal/baseobj"
)

// TestSizeofCeilings pins the widths of what a trigger copies. An invocation
// is an op code and two values (a CAS's expected and new value; a write's
// one) plus one body pointer, 64 bytes — the widest struct the compiler still
// copies with inline moves instead of a call to duffcopy. Every record that
// carries it grows with it: a batch op, a trigger event, a lane's hand-off,
// a pending op and the op's record in its group's slab (296 bytes before the
// invocation shrank from 112). A field added to any of them fails here, by
// name, before it costs the hot path a copy.
func TestSizeofCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		size    uintptr
		ceiling uintptr
	}{
		{"baseobj.Invocation", unsafe.Sizeof(baseobj.Invocation{}), 64},
		{"BatchOp", unsafe.Sizeof(BatchOp{}), 72},
		{"TriggerEvent", unsafe.Sizeof(TriggerEvent{}), 88},
		{"LaneOp", unsafe.Sizeof(LaneOp{}), 104},
		{"PendingOp", unsafe.Sizeof(PendingOp{}), 96},
		{"call", unsafe.Sizeof(call{}), 264},
	} {
		if tc.size > tc.ceiling {
			t.Errorf("%s is %d bytes, ceiling %d", tc.name, tc.size, tc.ceiling)
		}
	}
}
