// Package emulation defines the public surface of the reliable-register
// emulations studied by the paper: a fault-tolerant multi-writer register
// for an a-priori known set of k writers (the paper's k-register), exposed
// through per-client handles.
//
// Six constructions implement this interface, one per sub-package (abdmax,
// casmax, aacmax, naiveabd — store recipes for abdcore's one quorum
// register — regemu and coded; doc.go maps each to its row of the paper).
// Only the base objects and the protocol differ between them: every one is
// written once, as a completion-based Protocol, and embeds this package's
// Handles, which holds the client half they share — the name and k, the
// Writer and Reader handles that record the history and turn the protocol
// into the blocking Write / Read, and the writers' timestamp floor
// (Handles.Propose), through which every construction stamps its writes, so
// a writer handle stays reusable after an abandoned write on every one of
// them.
//
// Every construction is built the same way: New(fab, k, Options), where
// Options carries the only two settings a construction takes (atomic reads,
// payload size); the failure budget f, like the members, is read off the
// fabric's view (cluster.View). Every one reshapes across a view resize
// (Register.Reshape).
//
// A Writer or Reader handle is not safe for concurrent use; each client runs
// its own handle, mirroring the paper's per-client deterministic state
// machines.
package emulation

import (
	"fmt"

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
// disjoint from writer IDs 0..k-1. A register must reject k >= ReaderIDBase
// (Handles.Init does, through ValidateWriters) or the two ID spaces would
// collide.
const ReaderIDBase types.ClientID = 1 << 20

// ValidateWriters checks that a requested writer count fits the client-ID
// scheme: writers occupy IDs 0..k-1, so k must be positive and stay below
// ReaderIDBase. Handles.Init calls it before allocating handles.
func ValidateWriters(k int) error {
	if k <= 0 {
		return fmt.Errorf("emulation: k must be positive, got %d", k)
	}
	if types.ClientID(k) >= ReaderIDBase {
		return fmt.Errorf("emulation: k=%d collides with the reader ID space (ReaderIDBase=%d)", k, ReaderIDBase)
	}
	return nil
}

// Register is an emulated fault-tolerant k-register. A construction
// implements it by embedding Handles (Name, K, Writer, NewReader, History)
// and adding the rest.
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
	Writer(i int) (*Writer, error)
	// NewReader returns a fresh reader handle with a fresh client ID.
	NewReader() *Reader
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
