package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/baseobj"
	"repro/internal/types"
)

// TestObjectTableArenaBlocksGrowFromSmall pins the arena's growth: the first
// block holds arenaMinBlock entries — a cluster of one register pays for a
// few hundred bytes, not a 56 KiB block — and each later block as many as
// the table has placed, up to arenaMaxBlock. Fragment stores take no arena
// entry.
func TestObjectTableArenaBlocksGrowFromSmall(t *testing.T) {
	c := mustCluster(t, 3)
	var blocks []int
	for i := 0; i < 6*arenaMaxBlock; i++ {
		free := len(c.arena)
		if _, err := c.PlaceMaxRegister(types.ServerID(i % 3)); err != nil {
			t.Fatal(err)
		}
		if len(c.arena) != free-1 { // the placement opened a block
			blocks = append(blocks, len(c.arena)+1)
		}
	}
	want := []int{arenaMinBlock, arenaMinBlock, 8, 16, 32, 64, 128, 256, arenaMaxBlock, arenaMaxBlock, arenaMaxBlock, arenaMaxBlock}
	if len(blocks) < len(want) {
		t.Fatalf("arena blocks %v, want them to start %v", blocks, want)
	}
	for i, n := range want {
		if blocks[i] != n {
			t.Fatalf("arena blocks %v, want them to start %v", blocks, want)
		}
	}
	free := len(c.arena)
	if _, err := c.PlaceFragStore(0); err != nil {
		t.Fatal(err)
	}
	if len(c.arena) != free {
		t.Errorf("a fragment store took an arena entry (%d free, was %d)", len(c.arena), free)
	}
}

// payloadEnv places one max-register on server 0 of a 3-server cluster,
// writes value 1 with a 4 KiB payload into it and marks it used. It returns
// the entry, the state a coordinator would seal, and a weak pointer to the
// payload's bytes.
func payloadEnv(t *testing.T) (*Cluster, types.ObjectID, *Entry, baseobj.State, weak.Pointer[byte]) {
	t.Helper()
	c := mustCluster(t, 3)
	obj, err := c.PlaceMaxRegister(0)
	if err != nil {
		t.Fatal(err)
	}
	data := types.PayloadFor(1, 4096)
	if _, err := c.Apply(obj, 0, baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: 1, Val: 1}, Body: &baseobj.Fragment{Data: data}}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Lookup(obj)
	if err != nil {
		t.Fatal(err)
	}
	e.MarkUsed()
	return c, obj, e, e.Object().SealState(), weak.Make(&data[0])
}

// TestObjectTableArenaMoveRetiresOldCopy moves an arena copy holding a
// payload: the slot serves a heap clone on the target with the transferred
// state and the used latch; the old entry's copy refuses writes and reads
// with the retryable ErrSealed; and once the clone moved on to a newer
// value, the old copy — still reachable through its entry — pins none of
// the payload's bytes.
func TestObjectTableArenaMoveRetiresOldCopy(t *testing.T) {
	c, obj, old, state, payload := payloadEnv(t)
	joiner := c.AddServer().ID()
	if err := c.MoveObject(obj, joiner, state); err != nil {
		t.Fatal(err)
	}
	e, err := c.Lookup(obj)
	if err != nil {
		t.Fatal(err)
	}
	if e == old || e.Server().ID() != joiner {
		t.Fatalf("slot serves %p on server %d, want a fresh entry on %d", e, e.Server().ID(), joiner)
	}
	if got := e.Object().PeekState(); got.Val != state.Val || len(got.Data) != 4096 {
		t.Fatalf("clone holds %v with %d payload bytes, want %v with 4096", got.Val, len(got.Data), state.Val)
	}
	if !e.used.Load() {
		t.Error("the clone lost the used latch")
	}
	newer := types.TSValue{TS: 2, Val: 2}
	write := baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: newer, Body: &baseobj.Fragment{Data: types.PayloadFor(2, 16)}}
	if _, err := old.Object().Apply(0, &write); !errors.Is(err, baseobj.ErrSealed) {
		t.Errorf("write through the old entry: %v, want ErrSealed", err)
	}
	if _, err := old.Object().Apply(0, &baseobj.Invocation{Op: baseobj.OpReadMax}); !errors.Is(err, baseobj.ErrSealed) {
		t.Errorf("read through the old entry: %v, want ErrSealed", err)
	}
	if _, err := c.Apply(obj, 0, write); err != nil {
		t.Fatalf("write through the slot: %v", err)
	}
	state = baseobj.State{}
	runtime.GC()
	runtime.GC()
	if payload.Value() != nil {
		t.Error("the moved-away arena copy still pins its payload bytes")
	}
	if n := old.Object().SizeBytes(); n != 0 {
		t.Errorf("the moved-away copy reports %d payload bytes", n)
	}
	runtime.KeepAlive(old)
}

// TestObjectTableArenaRollbackAndRemove: a rollback (ReplaceObject) of a
// sealed arena copy publishes an unsealed clone on the same server with the
// used latch and retires the old copy; removing an object turns its slot
// into the tombstone, retires the copy and never hands the ID out again.
func TestObjectTableArenaRollbackAndRemove(t *testing.T) {
	c, obj, old, state, payload := payloadEnv(t)
	if err := c.ReplaceObject(obj, state); err != nil {
		t.Fatal(err)
	}
	e, err := c.Lookup(obj)
	if err != nil {
		t.Fatal(err)
	}
	if e == old || e.Server().ID() != 0 || !e.used.Load() {
		t.Fatalf("rollback: slot serves %p on server %d (used=%v), want a fresh used entry on 0", e, e.Server().ID(), e.used.Load())
	}
	write := baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: 2, Val: 2}}
	if _, err := c.Apply(obj, 0, write); err != nil {
		t.Errorf("the rolled-back clone is sealed: %v", err)
	}
	if _, err := old.Object().Apply(0, &baseobj.Invocation{Op: baseobj.OpReadMax}); !errors.Is(err, baseobj.ErrSealed) {
		t.Errorf("read through the rolled-back copy: %v, want ErrSealed", err)
	}
	state = baseobj.State{}
	runtime.GC()
	runtime.GC()
	if payload.Value() != nil {
		t.Error("the rolled-back arena copy still pins its payload bytes")
	}
	runtime.KeepAlive(old)

	other, err := c.PlaceMaxRegister(1)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := c.Lookup(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveObject(other); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(other); !errors.Is(err, ErrObjectRetired) {
		t.Errorf("Lookup of a removed object: %v, want ErrObjectRetired", err)
	}
	if _, err := gone.Object().Apply(0, &write); !errors.Is(err, baseobj.ErrSealed) {
		t.Errorf("write through a removed copy: %v, want ErrSealed", err)
	}
	if got := c.ResourceComplexity(); got != 1 {
		t.Errorf("ResourceComplexity = %d after one removal of two, want 1", got)
	}
	if id, err := c.PlaceMaxRegister(1); err != nil || id == other {
		t.Errorf("placement after a removal got ID %d, %v; the retired ID %d must not come back", id, err, other)
	}
}

// TestObjectTablePerServerBytesDuringJoin races PerServerBytes against a
// loop that admits a server and moves an object holding a payload onto it:
// the scan can reach an entry on a server that joined after it sized its
// result, which it must count instead of indexing past the end. After the
// loop every payload is counted exactly once, on its last host.
func TestObjectTablePerServerBytesDuringJoin(t *testing.T) {
	const objects, joins, size = 8, 500, 64
	c := mustCluster(t, 3)
	objs := make([]types.ObjectID, objects)
	for i := range objs {
		var err error
		if objs[i], err = c.PlaceMaxRegister(types.ServerID(i % 3)); err != nil {
			t.Fatal(err)
		}
		inv := baseobj.Invocation{Op: baseobj.OpWriteMax, Arg: types.TSValue{TS: 1, Val: 1}, Body: &baseobj.Fragment{Data: types.PayloadFor(1, size)}}
		if _, err := c.Apply(objs[i], 0, inv); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if bytes := c.PerServerBytes(); len(bytes) < 3 {
				t.Errorf("PerServerBytes covers %d servers, want at least 3", len(bytes))
				return
			}
		}
	}()
	for i := 0; i < joins; i++ {
		to := c.AddServer().ID()
		obj := objs[i%objects]
		o, err := c.Object(obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.MoveObject(obj, to, o.SealState()); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	bytes := c.PerServerBytes()
	if len(bytes) != 3+joins {
		t.Fatalf("PerServerBytes covers %d servers, want %d", len(bytes), 3+joins)
	}
	var total int64
	for id, b := range bytes {
		if b != 0 && b != size {
			t.Errorf("server %d holds %d bytes, want 0 or %d", id, b, size)
		}
		total += b
	}
	if total != objects*size {
		t.Errorf("servers hold %d payload bytes in all, want %d", total, objects*size)
	}
}
