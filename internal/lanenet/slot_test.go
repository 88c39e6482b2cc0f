package lanenet

import (
	"testing"
	"time"

	"repro/internal/baseobj"
	"repro/internal/fabric"
)

// TestSlotTableGrowsWithLiveEntries holds more requests in flight than the
// initial ring, so the table doubles while entries are live, and every one
// is still claimed exactly once afterwards.
func TestSlotTableGrowsWithLiveEntries(t *testing.T) {
	const n = 5 * initialSlots
	var tbl slotTable
	fired := make([]int, n+1)
	for req := uint64(1); req <= n; req++ {
		tbl.put(slot{req: req, first: func(baseobj.Response, error) { fired[req]++ }})
	}
	if len(tbl.slots) < n || len(tbl.slots)&(len(tbl.slots)-1) != 0 {
		t.Fatalf("ring holds %d slots for %d live requests, want a power of two >= %d", len(tbl.slots), n, n)
	}
	for req := uint64(n); req >= 1; req-- {
		s, ok := tbl.take(req)
		if !ok || s.req != req {
			t.Fatalf("take(%d) = %+v, %v", req, s, ok)
		}
		s.first(baseobj.Response{}, nil)
		if _, again := tbl.take(req); again {
			t.Fatalf("request %d claimed twice", req)
		}
	}
	for req := 1; req <= n; req++ {
		if fired[req] != 1 {
			t.Fatalf("request %d completed %d times", req, fired[req])
		}
	}
}

// TestSlotTableWrapsWithoutGrowing: a shallow pipeline runs ids past many
// multiples of the ring size and the ring never grows; responses for ids
// that were never issued or are already taken miss.
func TestSlotTableWrapsWithoutGrowing(t *testing.T) {
	var tbl slotTable
	const depth = 8
	for req := uint64(1); req <= 10*initialSlots; req++ {
		tbl.put(slot{req: req})
		if s := tbl.at(req); s == nil || s.req != req {
			t.Fatalf("request %d not found after put", req)
		}
		for _, stray := range []uint64{0, req + 1, req + initialSlots, req + 7*initialSlots} {
			if _, ok := tbl.take(stray); ok {
				t.Fatalf("take(%d) claimed a request never issued (live: %d)", stray, req)
			}
		}
		if req > depth {
			if _, ok := tbl.take(req - depth); !ok {
				t.Fatalf("request %d lost", req-depth)
			}
			if _, ok := tbl.take(req - depth); ok {
				t.Fatalf("request %d claimed twice", req-depth)
			}
		}
	}
	if len(tbl.slots) != initialSlots {
		t.Fatalf("ring grew to %d slots under a pipeline of depth %d", len(tbl.slots), depth)
	}
}

// TestSlotTableStragglerForcesGrowth: one request left unanswered while the
// ids run on collides with a newcomer a ring later; the table grows instead
// of overwriting it.
func TestSlotTableStragglerForcesGrowth(t *testing.T) {
	var tbl slotTable
	tbl.put(slot{req: 1})
	for req := uint64(2); req <= 3*initialSlots; req++ {
		tbl.put(slot{req: req})
		if _, ok := tbl.take(req); !ok {
			t.Fatalf("request %d lost", req)
		}
	}
	if _, ok := tbl.take(1); !ok {
		t.Fatal("the straggler was overwritten")
	}
}

// TestSlotTableRoundTripAllocatesNothing: once the ring exists, a plain
// apply's register-and-claim keeps its completion inline — no per-request
// slice, no allocation.
func TestSlotTableRoundTripAllocatesNothing(t *testing.T) {
	var tbl slotTable
	complete := fabric.CompleteFunc(func(baseobj.Response, error) {})
	req := uint64(1)
	tbl.put(slot{req: req}) // build the ring
	tbl.take(req)
	if n := testing.AllocsPerRun(1000, func() {
		req++
		tbl.put(slot{req: req, first: complete})
		if s, ok := tbl.take(req); !ok || s.more != nil {
			t.Fatal("round trip lost the request or grew a slice")
		}
	}); n != 0 {
		t.Fatalf("slot-table round trip: %v allocs, want 0", n)
	}
}

// TestFailDiscardsLiveSlots: a connection failing with requests in the
// table leaves every one of them pending forever and fires the crash hook
// once; late answers for them miss.
func TestFailDiscardsLiveSlots(t *testing.T) {
	pc := newPipeClient(t, nil)
	const n = 2 * initialSlots
	completed := make(chan struct{}, n)
	reqs := make([]uint64, n)
	for i := range reqs {
		pc.c.Deliver(fabric.TriggerEvent{Object: 1, Inv: baseobj.Invocation{Op: baseobj.OpWrite}}, nil,
			func(baseobj.Response, error) { completed <- struct{}{} })
		a, err := decodedApply(pc.request(t)[1:])
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = a.req
	}
	pc.peer.Close()
	pc.awaitCrash(t)
	pc.c.fail() // a second failure report is a no-op
	pc.c.mu.Lock()
	for _, req := range reqs {
		if pc.c.pending.at(req) != nil {
			t.Errorf("request %d still registered after fail", req)
		}
	}
	pc.c.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	if len(completed) != 0 || pc.hooks.Load() != 1 {
		t.Fatalf("%d ops completed, hook fired %d times; want none and once", len(completed), pc.hooks.Load())
	}
}
