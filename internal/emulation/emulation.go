// Package emulation defines the public surface of the reliable-register
// emulations studied by the paper: a fault-tolerant multi-writer register
// for an a-priori known set of k writers (the paper's k-register), exposed
// through per-client handles.
//
// Six constructions implement this interface, one per sub-package (abdmax,
// casmax, aacmax, naiveabd — store recipes for abdcore's one quorum
// register — regemu and coded; doc.go maps each to its row of the paper). Every one is written
// once, as a completion-based chain (WriteChain / ReadChain), and hands out
// the handles of this package (Writers / NewReader), which record the
// history and turn the chain into the blocking Write / Read.
//
// Every construction is built the same way: New(fab, k, Options), where
// Options carries the only two settings a construction takes (atomic reads,
// payload size); the failure budget f, like the members, is read off the
// fabric's view (cluster.View). Every one reshapes across a view resize
// (Register.Reshape). The register owns its history (Register.History), and
// every construction whose writers pick their own timestamps from a collect
// (abdcore's quorum register, regemu, coded) keeps its write handles in one
// Writers table and stamps through its one floor (Writers.Propose), so a
// writer handle stays reusable after an abandoned write on every one of them.
//
// Handles are not safe for concurrent use; each client runs its own handle,
// mirroring the paper's per-client deterministic state machines.
package emulation

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/spec"
	"repro/internal/types"
)

// Options are the settings every construction's New takes — the same two
// for all six.
type Options struct {
	// Atomic upgrades reads to the linearizable protocol: a reader writes the
	// value it returns back to a quorum first. This is the classic atomicity
	// fix, and it costs readers a write — which is exactly why the paper's
	// space bounds target regularity ("since atomicity usually requires
	// readers to write", Section 1). The constructions whose readers cannot
	// write (regemu, aac-max, naive) reject it (RegularOnly).
	Atomic bool
	// ValueSize, when positive, makes every write carry a payload of that
	// many bytes: abd-max stores a full copy on each of its 2f+1 servers,
	// coded a 1/kData fragment on each of its n (coded.DefaultValueSize when
	// zero). The other constructions track timestamps only and ignore it.
	ValueSize int
}

// RegularOnly rejects Atomic for a construction whose readers cannot write.
func (o Options) RegularOnly(construction string) error {
	if o.Atomic {
		return fmt.Errorf("%s: no atomic read mode (readers cannot write)", construction)
	}
	return nil
}

// ReaderIDBase is the first client ID handed to readers, keeping them
// disjoint from writer IDs 0..k-1. Constructions must reject k >=
// ReaderIDBase (ValidateWriters) or the two ID spaces would collide.
const ReaderIDBase types.ClientID = 1 << 20

// ValidateWriters checks that a requested writer count fits the client-ID
// scheme: writers occupy IDs 0..k-1, so k must be positive and stay below
// ReaderIDBase. Every construction calls this before allocating handles.
func ValidateWriters(k int) error {
	if k <= 0 {
		return fmt.Errorf("emulation: k must be positive, got %d", k)
	}
	if types.ClientID(k) >= ReaderIDBase {
		return fmt.Errorf("emulation: k=%d collides with the reader ID space (ReaderIDBase=%d)", k, ReaderIDBase)
	}
	return nil
}

// ReaderIDs allocates fresh reader client IDs above ReaderIDBase. The zero
// value is ready to use; Next is safe for concurrent callers (the async
// engine creates readers from its event loop while tests create them from
// their own goroutines).
type ReaderIDs struct {
	ctr atomic.Int64
}

// Next returns the next unused reader client ID.
func (r *ReaderIDs) Next() types.ClientID {
	return ReaderIDBase + types.ClientID(r.ctr.Add(1))
}

// Writer is the write-side handle of an emulated register for one client.
type Writer interface {
	// Write performs a high-level write of v. It blocks until the write
	// returns or ctx is done; a ctx error means the operation could not
	// complete (e.g. too many servers crashed for the failure threshold) and
	// was abandoned: it starts no further round and stays pending in the
	// history, like the paper's incomplete high-level ops. A round triggers
	// in one batch, so nothing follows the return — except where a store
	// takes its step later: abd-cas's Algorithm 1 loop, and an aac-max push
	// waiting behind the writer's own earlier write on that server. A store
	// that checked ctx just before the abandonment still triggers the step it
	// was about to, at most one per store (ROADMAP item 1(b)).
	Write(ctx context.Context, v types.Value) error
	// StartWrite is the completion-based write: it triggers the high-level
	// write and returns immediately; done fires exactly once when (and if)
	// the write completes — possibly inline, on the in-process lane, or
	// later on a fabric goroutine. If the failure assumption is violated
	// (more than f servers crash, or the environment holds responses
	// forever) done never fires, exactly like a pending high-level op;
	// callers bound the wait with ctx or their own clocks. Once ctx is done
	// the operation starts no further round. done must not block. A handle
	// serializes: the caller must not start a second operation before the
	// previous one completed or its ctx ended (the paper's well-formed
	// histories); internal/emulation/async enforces this per logical client.
	StartWrite(ctx context.Context, v types.Value, done func(error))
	// Client returns the writer's client ID.
	Client() types.ClientID
	// Claim records driver as the one party driving this handle, unless one
	// was recorded before, and returns the recorded driver: driver itself, or
	// the earlier claimant. A client engine claims a handle before it drives
	// it (async.Engine.WriterOn), so a writer slot has one driver however
	// often it is asked for.
	Claim(driver any) any
}

// Reader is the read-side handle of an emulated register for one client;
// the same contracts as Writer apply.
type Reader interface {
	// Read performs a high-level read.
	Read(ctx context.Context) (types.Value, error)
	// StartRead is the completion-based read.
	StartRead(ctx context.Context, done func(types.Value, error))
	// Client returns the reader's client ID.
	Client() types.ClientID
}

// Register is an emulated fault-tolerant k-register.
type Register interface {
	// Name identifies the construction (for reports and benches).
	Name() string
	// K returns the number of supported writers.
	K() int
	// F returns the failure threshold.
	F() int
	// Writer returns the handle for writer i in [0, k). Each call
	// returns the same underlying per-client state; the handle must be
	// used from one goroutine at a time.
	Writer(i int) (Writer, error)
	// NewReader returns a fresh reader handle with a fresh client ID.
	NewReader() Reader
	// ResourceComplexity returns the number of base objects the
	// construction placed — the paper's space measure.
	ResourceComplexity() int
	// History returns the high-level history the register's handles record.
	History() *spec.History
	// Reshape re-places the register's base objects on the members of a
	// view resize and seeds them, inside the transition's frozen window
	// (fabric.Resize): every old member is departed and quiesced, so it may
	// read authoritative state and seed the new placement directly without
	// racing client operations. Every construction reshapes; an error — a
	// geometry the new members and f cannot host — aborts the transition
	// onto the intact old view.
	Reshape(rs *fabric.Reshaper) error
}
