// Coded register construction: a fault-tolerant k-writer register whose
// per-server space is a *fragment* of the value, not a copy.
//
// Each write erasure-codes its payload into n fragments (systematic
// Reed–Solomon, any kData reconstruct — see rs.go) and stripes them across
// n fragment stores, one per server. The write is three quorum rounds:
//
//  1. collect:  OpFragTS on all n, gather n−f, bump the max timestamp;
//  2. put:      OpPutFrag of fragment i to server i, gather n−f acks;
//  3. commit:   OpCommitFrag(ts) on all n, gather n−f acks.
//
// The collect's timestamp is proposed through the writers' floor
// (emulation.Handles.Propose), as on abdcore's quorum register: a write
// abandoned with its put on fewer than n−f stores can be missed by the same
// writer's next collect, and proposing collected+1 would give the fresh write
// the abandoned one's (timestamp, writer) pair — two stripes a gather cannot
// order, so a read through a store holding the stray fragment could return
// the abandoned value after the fresh write completed. Every geometry with n ≤ 3f (kData =
// n−2f ≤ f) exposes that: a lone stray fragment reconstructs on its own.
//
// A read gathers OpGetFrags from n−f stores, picks the highest timestamp
// holding ≥ kData distinct fragments, rebuilds whichever data shards the
// gather missed, and verifies them against the payload of the timestamp's
// value (types.Payload embeds its own value derivation, so a stripe mixed
// from two writes can never verify silently). In atomic mode the reader
// writes the stripe back (re-encoded put + commit) before returning, unless
// every gathered store already committed it.
//
// Safety needs kData ≤ n−2f: at any one instant n−f stores intersect the put
// quorum of the newest committed stripe in ≥ n−2f stores, and the
// fragment-store retention rule (baseobj.FragStore) guarantees each of
// those still holds its fragment. A gather is not instantaneous — its answers
// may straddle commits and then hold no kData fragments of any one stripe —
// so a read checks what it reconstructed against the commit watermarks it
// saw and gathers again when it is behind them (errStraddled): reads are
// FW-terminating, they return once writes pause, which is what
// Spiegelman–Cassuto–Chockler show a coded register storing less than
// Ω(min(f, c)·D) must settle for. That is exactly the register-emulation
// space tension the paper quantifies: tolerating more failures at fixed n
// forces kData down, and at n = 2f+1 the construction degenerates to
// kData = 1 — full replication, the Ω(f·D) per-value regime of the SCC
// lower bound. The win exists only in the n > 2f+1 slack.
package coded

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/baseobj"
	"repro/internal/cluster"
	"repro/internal/emulation"
	"repro/internal/emulation/rounds"
	"repro/internal/fabric"
	"repro/internal/types"
)

// DefaultValueSize is the payload size used when emulation.Options.ValueSize
// is zero.
const DefaultValueSize = 64

// placement is one immutable striping geometry: the fragment stores, the
// failure budget, and the coder whose kData matches them. Rounds derive
// their targets and their n−f threshold from a single placement snapshot,
// so an operation retried across a resize epoch re-encodes and re-gathers
// against the new geometry — never a mix of old stores and new thresholds.
type placement struct {
	objs  []types.ObjectID
	n, f  int
	coder *Coder
}

// need is the quorum size of every round under this placement.
func (p *placement) need() int { return p.n - p.f }

// arrange is the one place a striping geometry is checked and placed — by
// New on the initial view, by Reshape on the post-resize members: f > 0,
// n ≥ 2f+1, a coder with kData = n−2f, and a fresh fragment store on every
// member. A refused geometry leaves no fragment store behind.
func arrange(c *cluster.Cluster, members []types.ServerID, f int) (*placement, error) {
	n := len(members)
	if f <= 0 {
		return nil, fmt.Errorf("coded: f must be positive, got %d", f)
	}
	if n < 2*f+1 {
		return nil, fmt.Errorf("coded: need n ≥ 2f+1 = %d servers, got %d", 2*f+1, n)
	}
	coder, err := NewCoder(n-2*f, n)
	if err != nil {
		return nil, fmt.Errorf("coded: %w", err)
	}
	objs := make([]types.ObjectID, 0, n)
	for _, sid := range members {
		obj, err := c.PlaceFragStore(sid)
		if err != nil {
			for _, obj := range objs {
				c.RemoveObject(obj)
			}
			return nil, fmt.Errorf("coded: placing fragment store on server %d: %w", sid, err)
		}
		objs = append(objs, obj)
	}
	return &placement{objs: objs, n: n, f: f, coder: coder}, nil
}

// Register implements emulation.Register over striped fragment stores.
type Register struct {
	emulation.Handles
	valueSize int
	atomic    bool
	p         atomic.Pointer[placement]
	fab       *fabric.Fabric
	// straddles counts the gathers reads repeated because the answers
	// straddled a commit (errStraddled).
	straddles atomic.Uint64
}

// Compile-time interface compliance check.
var _ emulation.Register = (*Register)(nil)

// New places one fragment store on every member of the cluster's current
// view, striped for the view's f, and returns the emulated k-writer
// register. opts.ValueSize is the payload size in bytes each write stores
// (DefaultValueSize when zero, at least types.MinPayloadSize); opts.Atomic
// makes readers write the stripe back.
func New(fab *fabric.Fabric, k int, opts emulation.Options) (*Register, error) {
	valueSize := opts.ValueSize
	if valueSize <= 0 {
		valueSize = DefaultValueSize
	}
	r := &Register{
		valueSize: max(valueSize, types.MinPayloadSize),
		atomic:    opts.Atomic,
		fab:       fab,
	}
	if err := r.Init("coded", k, (*chain)(r)); err != nil {
		return nil, err
	}
	c := fab.Cluster()
	view := c.View()
	p, err := arrange(c, view.Members, view.F)
	if err != nil {
		return nil, err
	}
	r.p.Store(p)
	return r, nil
}

// F implements emulation.Register.
func (r *Register) F() int { return r.p.Load().f }

// DataShards returns the coder's k: fragments sufficient to reconstruct.
func (r *Register) DataShards() int { return r.p.Load().coder.K() }

// ValueSize returns the payload size each write stores.
func (r *Register) ValueSize() int { return r.valueSize }

// StraddledGathers returns how many gathers this register's reads repeated
// because their answers straddled a commit.
func (r *Register) StraddledGathers() uint64 { return r.straddles.Load() }

// ResourceComplexity implements emulation.Register: one fragment store per
// server. The paper's object-count measure is blind to the win here — the
// bytes-per-server axis (cluster.PerServerBytes) is what separates coded
// from replicated.
func (r *Register) ResourceComplexity() int { return r.p.Load().n }

// targets appends (see rounds.Plan) a round that sends every store the same
// invocation: the timestamp collect (OpFragTS), the gather (OpGetFrags), the
// commit (OpCommitFrag).
func (p *placement) targets(buf []rounds.Target, inv baseobj.Invocation) []rounds.Target {
	for _, obj := range p.objs {
		buf = append(buf, rounds.Target{Object: obj, Inv: inv})
	}
	return buf
}

// putTargets appends the striped put round: fragment i goes to store i.
func (p *placement) putTargets(buf []rounds.Target, ts types.TSValue, length int, shards [][]byte) []rounds.Target {
	for i, obj := range p.objs {
		frag := &baseobj.Fragment{
			TS:     ts,
			Index:  i,
			K:      p.coder.K(),
			Length: length,
			Data:   shards[i],
		}
		buf = append(buf, rounds.Target{Object: obj, Inv: baseobj.Invocation{Op: baseobj.OpPutFrag, Body: frag}})
	}
	return buf
}

// chain is the Register seen as its handles' emulation.Protocol: the same
// pointer under another method set, so the raw, history-less protocol stays
// off the Register's public surface.
type chain Register

// StartWrite runs the three-round write as a completion chain: collect the
// max timestamp and propose above it and above the writer's floor, stripe
// the payload across the put quorum, commit. done fires exactly once; it
// never fires if the failure assumption is violated, like any pending op.
func (c *chain) StartWrite(ctx context.Context, client types.ClientID, v types.Value, done func(error)) {
	r := (*Register)(c)
	rounds.Scatter(ctx, r.fab, client, rounds.Round{Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
		p := r.p.Load()
		return p.targets(buf, baseobj.Invocation{Op: baseobj.OpFragTS}), p.need()
	}, Max: func(cur types.TSValue, _ uint64, err error) {
		if err != nil {
			done(fmt.Errorf("coded: write collect: %w", err))
			return
		}
		ts := types.TSValue{TS: r.Propose(client, cur.TS), Writer: client, Val: v}
		r.startPut(ctx, client, ts, r.p.Load().payload(v, r.valueSize), func(err error) {
			if err != nil {
				done(fmt.Errorf("coded: write: %w", err))
				return
			}
			done(nil)
		})
	}})
}

// payload builds v's payload in a buffer this placement's stripes can
// alias (see Coder.Encode): room for the k·FragmentSize stripe, zero
// padding past the value.
func (p *placement) payload(v types.Value, size int) types.Payload {
	buf := make(types.Payload, size, p.coder.K()*p.coder.FragmentSize(size))
	types.PutPayload(buf, v)
	return buf
}

// startPut stripes payload at timestamp ts across the stores and commits:
// rounds 2 and 3 of a write, also the write-back of an atomic read. Each
// attempt re-encodes against the placement it scatters over, so a put
// retried across a resize epoch stripes with the new coder's kData.
func (r *Register) startPut(ctx context.Context, client types.ClientID, ts types.TSValue, payload types.Payload, done func(error)) {
	rounds.Scatter(ctx, r.fab, client, rounds.Round{Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
		p := r.p.Load()
		return p.putTargets(buf, ts, len(payload), p.coder.Encode(payload)), p.need()
	}, Max: func(_ types.TSValue, _ uint64, err error) {
		if err != nil {
			done(fmt.Errorf("stripe put: %w", err))
			return
		}
		rounds.Scatter(ctx, r.fab, client, rounds.Round{Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
			p := r.p.Load()
			return p.targets(buf, baseobj.Invocation{Op: baseobj.OpCommitFrag, Arg: ts}), p.need()
		}, Max: func(_ types.TSValue, _ uint64, err error) {
			if err != nil {
				done(fmt.Errorf("stripe commit: %w", err))
				return
			}
			done(nil)
		}})
	}})
}

// StartRead gathers n−f fragment snapshots, reconstructs the newest
// reconstructible stripe, and (atomic mode) writes it back before
// returning. A gather that straddled commits (errStraddled) is repeated until
// one does not — or ctx ends.
func (c *chain) StartRead(ctx context.Context, client types.ClientID, done func(types.Value, error)) {
	r := (*Register)(c)
	// gathered pins the placement the final gather attempt scattered over:
	// reconstruct must use that attempt's coder, not whatever r.p holds by
	// the time the fold callback runs (a resize may swap it in between).
	var gathered atomic.Pointer[placement]
	// On the in-process lane a gather reports inside Scatter, so a report that
	// gathered again itself would recurse once per straddle. While Scatter is
	// on the stack (inScatter) the report hands the repeat back to the loop
	// around it instead; only a report arriving after Scatter returned — an
	// asynchronous lane's, on a stack of its own — runs the next gather.
	var inScatter atomic.Bool
	var gather func()
	gather = func() {
		for {
			inScatter.Store(true)
			rounds.Scatter(ctx, r.fab, client, rounds.Round{Plan: func(buf []rounds.Target) ([]rounds.Target, int) {
				p := r.p.Load()
				gathered.Store(p)
				return p.targets(buf, baseobj.Invocation{Op: baseobj.OpGetFrags}), p.need()
			}, Reports: func(reps []rounds.Report, err error) {
				if err != nil {
					done(types.InitialValue, fmt.Errorf("coded: read gather: %w", err))
					return
				}
				s, committed, err := gathered.Load().reconstruct(reps)
				switch {
				case errors.Is(err, errStraddled):
					r.straddles.Add(1)
					if !inScatter.CompareAndSwap(true, false) {
						gather()
					}
				case err != nil:
					done(types.InitialValue, fmt.Errorf("coded: read: %w", err))
				default:
					r.finishRead(ctx, client, s, committed, done)
				}
			}})
			if inScatter.CompareAndSwap(true, false) {
				return // no report claimed the repeat
			}
		}
	}
	gather()
}

// finishRead turns a reconstructed stripe into the read's result. The
// value is checked on the data shards where they lie; the payload is
// assembled only for an atomic read's write-back.
func (r *Register) finishRead(ctx context.Context, client types.ClientID, s stripe, committed bool, done func(types.Value, error)) {
	if s.ts == types.ZeroTSValue {
		done(types.InitialValue, nil)
		return
	}
	if err := s.check(); err != nil {
		done(types.InitialValue, fmt.Errorf("coded: read: %w", err))
		return
	}
	if !r.atomic || committed {
		done(s.ts.Val, nil)
		return
	}
	// Write-back: make the stripe as stable as a completed write, so a
	// later reader cannot observe an older value (the ABD new/old
	// inversion). Re-encoding regenerates the fragments the gather
	// didn't see.
	r.startPut(ctx, client, s.ts, s.payload(), func(err error) {
		if err != nil {
			done(types.InitialValue, fmt.Errorf("coded: read write-back: %w", err))
			return
		}
		done(s.ts.Val, nil)
	})
}

// stripe is the write a gather reconstructed: its timestamp, its payload
// length and its kData data shards, which alias the gathered fragments
// wherever a store returned one. The zero stripe is the initial state.
type stripe struct {
	ts     types.TSValue
	length int
	shards [][]byte
}

// check verifies the data shards, where they lie, against the payload of the
// value the stripe's timestamp names (types.PayloadFor): fragments mixed from
// two writes, or a corrupt byte, fail here without the payload ever being
// assembled.
func (s stripe) check() error {
	if s.length < types.MinPayloadSize {
		return fmt.Errorf("stripe %v holds %d bytes, less than a payload", s.ts, s.length)
	}
	fs := len(s.shards[0])
	for j, shard := range s.shards {
		off := j * fs
		if off >= s.length {
			break
		}
		if i := types.PayloadMismatch(s.ts.Val, off, shard[:min(fs, s.length-off)]); i >= 0 {
			return fmt.Errorf("stripe %v is not value %d's payload: corrupt at byte %d", s.ts, s.ts.Val, i)
		}
	}
	return nil
}

// payload assembles the stripe's value bytes, in a buffer Encode can
// restripe without copying: the data shards' zero padding follows them.
func (s stripe) payload() types.Payload {
	return slices.Concat(s.shards...)[:s.length]
}

// errStraddled reports a gather whose answers span commits: some report's
// commit watermark is newer than every stripe the gathered fragments can
// reconstruct. That watermark's write reached n−f stores, so a value at least
// that new exists; the reports just caught the stores at different moments —
// each keeps one committed fragment and drops pending ones at every higher
// commit. Returning the older stripe (or the initial value, when none
// reconstructs) could miss a completed write.
var errStraddled = errors.New("gather straddled a commit")

// reconstruct picks the newest stripe with ≥ kData distinct fragments
// among the gathered reports and rebuilds whichever of its data shards the
// gather missed (none, when the answers hold all of them). committed reports
// whether every gathered store's commit watermark already covers that stripe
// — the atomic-mode fast path that skips the write-back. The zero stripe
// means the register is in its initial state: no report carries a commit.
//
// At any one instant the newest committed stripe is reconstructible from n−f
// stores (retention rule + quorum intersection, see the package comment); a
// gather is not instantaneous, so that is checked, not assumed: a chosen
// stripe older than the highest reported watermark is errStraddled. Otherwise
// the stripe is never older than a write completed before the gather began. A
// newer pending stripe that happens to be reconstructible may win instead;
// its write is concurrent, so returning it is regular — and the write-back
// makes it stable before an atomic read returns.
func (p *placement) reconstruct(reps []rounds.Report) (stripe, bool, error) {
	// found is one write's fragments by stripe position, nil where no
	// answer held one; a gather spans a handful of writes at most.
	type found struct {
		ts     types.TSValue
		length int
		frags  [][]byte
		count  int
	}
	k := p.coder.K()
	var writes []found
	for _, rep := range reps {
		for _, f := range rep.Frags {
			if f.K != k {
				return stripe{}, false, fmt.Errorf("fragment of stripe %v has k=%d, coder has k=%d", f.TS, f.K, k)
			}
			if f.Index < 0 || f.Index >= p.n {
				return stripe{}, false, fmt.Errorf("fragment of stripe %v has index %d, stripes have %d", f.TS, f.Index, p.n)
			}
			w := slices.IndexFunc(writes, func(w found) bool { return w.ts == f.TS })
			if w < 0 {
				writes = append(writes, found{ts: f.TS, length: f.Length, frags: make([][]byte, p.n)})
				w = len(writes) - 1
			}
			if writes[w].frags[f.Index] == nil {
				writes[w].count++
			}
			writes[w].frags[f.Index] = f.Data
		}
	}
	var best found
	for _, w := range writes {
		if w.count >= k && best.ts.Less(w.ts) {
			best = w
		}
	}
	committed := true
	for _, rep := range reps {
		if best.ts.Less(rep.Val) {
			return stripe{}, false, errStraddled
		}
		committed = committed && !rep.Val.Less(best.ts) // a watermark below the stripe: not yet committed there
	}
	if best.ts == types.ZeroTSValue {
		return stripe{}, true, nil
	}
	if err := p.coder.rebuild(best.frags, p.coder.FragmentSize(best.length), nil); err != nil {
		return stripe{}, false, fmt.Errorf("decoding stripe %v: %w", best.ts, err)
	}
	return stripe{ts: best.ts, length: best.length, shards: best.frags[:k]}, committed, nil
}

// Reshape implements emulation.Register by restriping: inside the
// frozen window it reads every old store's full fragment state (the
// authoritative whole — no quorum sampling needed), reconstructs the newest
// reconstructible stripe, re-encodes it with the new geometry's coder, and
// seeds fresh fragment stores on every new member — survivors included,
// because their old stores hold fragments striped at the old kData, which
// the new coder must never see. The placement swap happens before the old
// stores retire, so an in-window retry can never route to a missing object.
func (r *Register) Reshape(rs *fabric.Reshaper) error {
	old := r.p.Load()
	reps := make([]rounds.Report, 0, len(old.objs))
	for i, obj := range old.objs {
		st, err := rs.State(obj)
		if err != nil {
			return fmt.Errorf("coded: reading fragment store %d: %w", obj, err)
		}
		reps = append(reps, rounds.Report{Index: i, Object: obj, Val: st.Val, Frags: st.Frags})
	}
	s, _, err := old.reconstruct(reps)
	if err != nil {
		return fmt.Errorf("coded: restripe: %w", err)
	}
	p, err := arrange(r.fab.Cluster(), rs.Members(), rs.F())
	if err != nil {
		return err
	}
	if s.ts != types.ZeroTSValue {
		shards := p.coder.Encode(s.payload())
		for i, obj := range p.objs {
			frag := &baseobj.Fragment{TS: s.ts, Index: i, K: p.coder.K(), Length: s.length, Data: shards[i]}
			if _, err := rs.Apply(obj, baseobj.Invocation{Op: baseobj.OpPutFrag, Body: frag}); err != nil {
				return fmt.Errorf("coded: seeding fragment %d: %w", i, err)
			}
			if _, err := rs.Apply(obj, baseobj.Invocation{Op: baseobj.OpCommitFrag, Arg: s.ts}); err != nil {
				return fmt.Errorf("coded: committing seeded stripe on store %d: %w", obj, err)
			}
		}
	}
	r.p.Store(p)
	for _, obj := range old.objs {
		if err := rs.Retire(obj); err != nil {
			return fmt.Errorf("coded: retiring fragment store %d: %w", obj, err)
		}
	}
	return nil
}
