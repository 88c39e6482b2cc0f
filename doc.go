// Package repro is a reproduction of "Space Complexity of Fault Tolerant
// Register Emulations" (Chockler & Spiegelman, PODC 2017): emulations of
// reliable multi-writer registers from fault-prone base objects
// (read/write registers, max-registers, CAS) hosted on crash-prone servers,
// together with the covering adversary behind the paper's lower bounds and
// a benchmark harness regenerating every table and figure.
//
// # Architecture
//
// The system is layered along the paper's model, and sharded along its
// fault boundary — servers:
//
//   - internal/baseobj: the base-object types (register, max-register, CAS
//     cell — one TSValue cell told apart by kind — and the coded fragment
//     store) with their sequential specifications, behind one Object
//     contract: apply, the external state lock of snapshot scans, seal and
//     state transfer, and the space metric. baseobj.New builds any kind.
//     An invocation is what the paper's model lets a low-level op carry:
//     an op code and at most two values — a CAS's expected value in Exp and
//     its new one in Arg, a write's one value in Arg — plus one body
//     pointer for what is not a value (a put's fragment, a replicated
//     write's payload as the body's Data, built once per push and shared by
//     every store's op). That is 64 bytes, the widest struct copied without
//     a duffcopy call, and Apply takes it by pointer: the caller's record —
//     the trigger's event, a decoded frame — is read in place.
//   - internal/cluster: the server set S, the membership View (epoch,
//     members, f) and the delta: B -> S placement mapping, stored once: a
//     dense, lock-free-read object table (see "The object table" below).
//     Which servers may take an object is read from the view — a departed
//     server refuses placement — so no other layer keeps a server list.
//   - internal/fabric: the asynchronous trigger/respond fabric between
//     clients and base objects, sharded into per-server dispatch lanes.
//     Token allocation is lock-free, where an object lives is read from
//     the cluster's table on every trigger (nothing is cached), each lane
//     owns its held-op, in-flight, and crash-drop state, and TriggerBatch
//     scatters a whole quorum round in one call, over storage the caller
//     owns (a Group: ops and one slab of calls). A call is the operation's
//     one record from trigger to completion, on every lane: listed in
//     flight, asked both gates while listed, parked or dropped in the
//     critical section that unlists it — so Pending is exact at every
//     moment (only an in-process op under the benign gate, which nothing
//     can hold, runs inline and unrecorded). Op i's record is call i of the
//     slab, its apply and completion callbacks bound once per slot, and the
//     []LaneOp an asynchronous lane is handed is a window of the group's
//     own staging, the lanes' windows laid end to end — so from Scatter to
//     the lane a recycled round allocates nothing, and a record lives
//     exactly as long as its round. What that asks of a backend: at most
//     one completion per delivery, and no reading of a handed slice after
//     its last op completed (fabric.GroupLane).
//     An operation is triggered in exactly one way, as a slot of a
//     Group (a lone operation is a one-op group), and its completion is
//     heard in exactly one way: through the group's Done, which fires
//     once per operation, on whatever goroutine completes it — inline on
//     the in-process lane — and never for an operation that stays
//     pending. Done is lent the outcome by pointer, into the op's record,
//     where the response was written once. The environment plugs in as a Gate
//     (hold/release/crash); outside the fabric there is one,
//     adversary.Script, and every adversary — the covering adversary of
//     Lemma 1 included — is a policy installed on it as a rule. Each
//     lane's transport is a pluggable backend (the Lane interface): the
//     in-process lane (default, synchronous, zero-regression hot path),
//     the latency lane, and the network lane below. TriggerScan scatters
//     an all-read round whose per-server groups are each answered from
//     one consistent snapshot of that server's objects (inline under the
//     objects' state locks in-process; inside the event loop or the
//     node's exclusive section on the asynchronous backends). Every
//     membership change is one Resize, committed under one epoch bump, and
//     the delta picks the transition: a swap that keeps n and f freezes only
//     its leavers and moves their objects, state included, onto the
//     joiners; a delta that moves n or f freezes every member and has the
//     constructions re-place their objects (the reshape).
//   - The latency lane (fabric.LatencyLanes) is one goroutine per server,
//     an event loop: a delivery appends to an unbounded mailbox and never
//     blocks, the loop draws seeded delay/jitter/straggler delivery times
//     into a min-heap, and when an op falls due it applies it and runs its
//     completion, both on the loop — a completion that triggers new ops
//     only posts, so it cannot deadlock. Because the loop alone applies
//     ops, a scan group applied back-to-back is one snapshot. Nothing is
//     tunable but the seed and the delay profile.
//   - internal/lanenet + cmd/lanenode: the network lane backend — a
//     length-prefixed TCP protocol between a lane and a per-server storage
//     node process holding the authoritative base objects. The connection
//     is fully pipelined: the client queues frames and a flusher goroutine
//     coalesces everything queued into one deadline-bounded write as soon
//     as the queue is non-empty — no linger, no timer (identical queued
//     reads collapse onto one request; a scan group travels as one msgScan
//     frame answered under the node's exclusive lock; a group is queued as
//     one item, the window the fabric lent, and encoded from it in place)
//     — and the node
//     handles each already-buffered burst before writing its responses in
//     one go. Both ends read through the same 64 KiB buffered frame reader,
//     so a burst of frames costs one read(2), and decode each frame in
//     place from the buffer; the view-lifetime rule is "a decoder copies
//     what it keeps" — a frame's bytes are gone once the next frame is
//     read (a frame larger than the buffer is copied out instead).
//     Encoders append straight into the outgoing buffer behind a
//     back-patched length prefix; an invocation too large for a frame
//     completes with lanenet.ErrFrameTooLarge instead of reaching the wire
//     (a bad client input must not cost a server crash). Responses are
//     matched by request id through a slot table — ids are sequential per
//     connection, so a power-of-two ring indexed by id, each slot recording
//     the id it holds, replaces a map — and many ops share the socket
//     without a round-trip each. A broken connection crashes the lane's
//     server (reconnect-as-crash), so killing a node process is exactly
//     the paper's server crash: in-flight and future ops become pending
//     forever and quorums over surviving nodes keep completing.
//   - internal/emulation/rounds: the one quorum round engine. Scatter
//     takes a Round — per-attempt geometry (a Plan, re-run before every
//     attempt so a retry across a resize epoch uses the new placement and
//     the new n−f), dispatch (TriggerBatch, or TriggerScan for all-read
//     collects, which ride the snapshot path), a completion condition (a
//     response count, or Algorithm 2's all-but-f complete per-server scans
//     with the over-delivery guard) and a reducer (fold the maximum
//     timestamp, or hand over the raw reports) — triggers the round in one
//     call and reports exactly once from whatever goroutine completes it.
//     Nothing blocks and there are no report channels; crashed or held
//     operations just leave the round pending. A round in steady state
//     allocates nothing, on any lane: one pooled object per attempt carries
//     the fold, the fabric Group its plan appends targets into (and with it
//     the call slab and lane staging), and completion funcs bound once. The fabric holds a reference on the group per op (dropped
//     after the op's completion returned) plus one for its dispatch pass,
//     and the last one out recycles the object — so a straggler lands in its
//     own round's spent fold, an attempt with an op on a crashed server is
//     never recycled (it is garbage), and a Reports round gives its report
//     slice away for good.
//     Retry is the one place a view-change retry is decided: a completion
//     that raced a reconfiguration never applied, so the round (Scatter,
//     abdcore's push over chain stores) or the single low-level write (regemu's
//     re-trigger; its whole push, with the same timestamp, when a reshape
//     replaced the layout) runs again against the current placement — not after a
//     delay but when the fabric's view stamp has moved past the value the
//     attempt read before it planned. The stamp counts ended transitions:
//     Resize advances it on both exits, commit and abort, after the
//     surviving frozen lanes are back in service. A bounced attempt whose
//     stamp is already stale (a sealed or retired object)
//     retries at once; one whose stamp is current parks (Fabric.AwaitView)
//     and is woken by the transition's end, so a wait of any length costs
//     one re-scatter, there is no backoff ladder or retry budget to tune,
//     and a view-change error cannot reach a client. The wait ends
//     otherwise only with the operation's own context, in which case it
//     reports that instead and triggers nothing. The coordinator is
//     event-driven the same way: the drain waits on the frozen lane's
//     "in-flight reached zero" signal and a frozen-window wire read on its
//     completion, the context, or the server's crash channel — the
//     non-test code of these layers holds no timer (make no-timers).
//   - internal/emulation/...: the constructions of Table 1 (abdmax,
//     casmax, aacmax, regemu, and the under-provisioned naiveabd baseline)
//     plus coded, each written once, as a completion-based chain of rounds,
//     and each built the same way: New(fab, k, emulation.Options), reading
//     its hosts and its f from the fabric's view (runner.BuildWith is where
//     an experiment sets the view's f), the one options type (Atomic,
//     ValueSize — regemu, aac-max and naive refuse Atomic in their own New,
//     the timestamp-only constructions ignore ValueSize), every register
//     records its own history
//     (emulation.Register.History), and every one reshapes inside the
//     frozen window of a view resize that moves n or f
//     (emulation.Register.Reshape — regemu re-plans its layout for the new
//     n and f, so its register count follows Table 1's row as servers join
//     and leave); a swap that keeps both moves the objects and leaves the
//     placement as it is. The four quorum constructions are store
//     recipes for one abdcore.Register, which owns the placement, the
//     collect, the push, the writers' timestamp floor and the handles. A
//     store is one server's base objects — one max-register, plain
//     register or CAS cell, or aac-max's k single-writer registers —
//     placed by the construction's recipe (Config.Place, a plain function);
//     abdcore.New validates f and the 2f+1 hosts once and calls it for each
//     of them, and a view resize calls the same recipe for the servers it
//     adds. The placement keeps only each store's objects (the register's
//     resource complexity is their count; which server hosts a store is
//     the object table's to say, so a swapped store stays the same store),
//     and New's placement
//     and the writer handles live inside the register: a register of three
//     one-object stores is one heap object. The base-object kind fixes the
//     store's read and write-max: the collect reads every object with its
//     kind's state read (baseobj.Kind.StateRead — read-max, read,
//     Algorithm 1's no-op CAS(v0, v0); the fabric's frozen-window state
//     reads use the same table), so every collect is one round: n−f responses when a store is
//     one object, a server scan at f — regemu's shape — when it is several
//     (aac-max's k registers). The write-max has the two shapes of Table 1:
//     one op where the kind has one (Kind.WriteMax: a max-register's
//     write-max, a plain register's overwrite), pushed as one round, or a chain the
//     construction runs on each store (Config.Chain, one per register —
//     Algorithm 1's CAS loop, aac-max's one-write-in-flight cell per base
//     register), which also folds a resize's maximum into a store (Seed). A
//     new row of Table 1 is a recipe and, for a kind without a one-op
//     write-max, a chain. A chain starts from the collect's maximum:
//     Algorithm 1 expects the cell to hold it, so a settled abd-cas store
//     takes one CAS per write, and a failed CAS's returned value is the
//     retry's expected value — no CAS is followed by a re-read. An atomic
//     read writes its collected maximum back before it returns; on chain
//     stores the write-back skips the collect's agreement set — the stores
//     whose response was that maximum, which rounds' Max reducer reports
//     with it; a store's cells only grow, so each holds it already — while
//     the placement the collect planned against is still live. When those
//     stores alone are a quorum the read returns after its collect (a
//     settled abd-cas read is one round), and a view-change retry of the
//     write-back pushes in full. The one-op push (abd-max, naive) writes
//     back to every store.
//     Handles come from package emulation: every construction embeds one
//     emulation.Handles (name, k, writer handles, reader IDs, history, and
//     the construction's one Protocol), and its Writer and Reader are
//     concrete types. StartWrite/StartRead run the protocol under the
//     caller's context (an in-flight op costs no goroutine), and Write/Read
//     are one blocking adapter over the same protocol, which owns the
//     cancellation contract — an already-cancelled
//     context fails before any trigger; an operation cancelled mid-flight
//     is abandoned: it starts no further round (abd-cas's loop checks the
//     context before each CAS, so a store already past its check takes that
//     one CAS: at most ResourceComplexity() triggers after the call
//     returned, ROADMAP item 1(b)), its history entry
//     stays pending (completion and abandonment race on a single latch, so
//     the entry closes before the call returns or never), and the handle is
//     reusable: the quorum register, regemu and coded all stamp writes
//     through the floor of their Handles (Handles.Propose), which starts
//     every timestamp above the last one the writer proposed, so an
//     abandoned write cannot tie its next one. Writer(i) is the same handle
//     on every call, and a client engine claims it (Writer.Claim): one
//     driver per writer, with no index in the engine.
//     Above the round an operation is three records — the engine's op, the
//     handle's call (history entry and the caller's completion), abdcore's
//     chain (context, value, what to push) — each pooled where it is born
//     with its callbacks bound once, and each returned in one place: the
//     step that fires its layer's single completion. An operation that
//     never completes, or that a closing engine failed while its chain was
//     still out, keeps its records for the collector ("Op storage
//     lifetime", ROADMAP.md). So a whole abd-max op allocates nothing.
//   - internal/emulation/coded: the sixth construction opens the
//     bytes-per-server axis — a systematic Reed–Solomon GF(2^8) coder
//     stripes each write's payload into n timestamped fragments (any
//     kData = n−2f reconstruct) over per-server fragment stores
//     (baseobj.FragStore), so each server holds ceil(size/kData) bytes
//     where replication holds the full value. Writes put fragments at
//     n−f then commit at n−f; a fragment store retires a pending stripe
//     only on a higher-timestamped commit, so at any one instant n−f
//     stores hold >= kData fragments of the newest committed stripe and a
//     torn stripe (a crashed or gated writer's partial put) is simply never
//     reconstructible. A gather is not instantaneous: one whose answers
//     straddle commits may reconstruct nothing as new as a commit it
//     saw, and is repeated — reads are FW-terminating (they finish once
//     writes pause), never wrong. The stripe's data shards are verified
//     where they lie against the payload's self-describing fill, so a
//     gather holding all of them decodes nothing; parity comes from a
//     word-wide table kernel. At f=2, n=5 the safe shard count
//     collapses to 1 and the construction degenerates to replication,
//     exactly where the paper's lower bound says coding cannot help.
//   - internal/emulation/async: the completion-based client engine — a
//     single event-loop goroutine (mailbox, freestore-style) multiplexing
//     thousands of logical clients over one construction, with per-client
//     op serialization (the paper's well-formed histories), queueing, and
//     close/cancellation propagation onto every in-flight op (chains run
//     under the engine's context, so a closed engine retries nothing).
//   - internal/shardstore: the horizontal-composition layer — a large
//     register key-space partitioned across S independent fabrics (each a
//     complete vertical slice: cluster, fabric, lane group; shards share
//     no locks and no fault domains) behind a single routing frontend,
//     driven by M detached async engine loops shared across the shards.
//     The key->shard router is a pure splitmix hash — deterministic
//     across restarts, the key-space analogue of the fabric's per-object
//     ServerFor — and a second independent hash pins every key's clients
//     to one engine loop, so per-client op serialization (well-formed
//     histories) survives any number of calling goroutines. Registers
//     materialize lazily on first touch, into the store's one key table in
//     the object table's idiom (512-slot chunks of atomic pointers to each
//     key's record, built once with a slot per client): an op on a
//     materialized key takes no lock, only a first touch of a key or a
//     client slot takes its shard's lock, which a transition holds. On the
//     TCP lane, shards multiplex
//     onto a flat pool of lanenode processes via per-connection named
//     tables (msgBind / lanenet.WithTable): one process hosts many shards'
//     object tables over one listener without id collisions, and killing
//     it crashes one server in every shard tabled there.
//   - internal/loadgen + cmd/loadgen: the end-to-end workload driver on
//     top of the sharded store — closed-loop (one op in flight per client)
//     or open-loop populations over the key-space, on any lane backend,
//     recording high-level ops/sec and log-linear latency histograms
//     (internal/stats.Histogram), per shard and merged
//     (stats.Histogram.Merge). The open loop timestamps every operation
//     at its intended send time (coordinated-omission correction), so
//     saturation shows up as unbounded tail latency rather than being
//     silently absorbed; RateSweep traces the latency-vs-offered-rate
//     curve and Knee marks the highest sustained rate. Runs are
//     correctness-gated: read validity always, and sampled linearizability
//     (spec.SampleLinearizable, sound read-source projections) on atomic
//     builds.
//   - internal/spec: the consistency checkers (WS-Safety, WS-Regularity,
//     linearizability) that validate every experiment's history. The
//     write-sequential checkers answer per-read questions from a sorted
//     write index. CheckLinearizable decides unique-value histories (every
//     run in this repository) with a polynomial write-order constraint
//     graph (atomicity.go) — wide-concurrency load histories included —
//     and falls back to the Wing–Gong search (per-op precedence bitmasks,
//     pooled memo) for general histories up to 64 ops.
//   - internal/adversary, internal/runner: the paper's experiments —
//     covering runs, the stale-release separation attack, exhaustive
//     schedule search, torn stripes, chaos runs. The adversary is one gate,
//     adversary.Script, whose two rules (apply, respond) are the policies:
//     a scripted run's armed holds, or Chaos.Hold's seeded draw. Every
//     hand-built run is a step list executed by runner.RunScript's step
//     executor: the Lemma 1 covering run (runner.CoveringScript: per writer
//     a hold of count f off the protected set F, once per register), the
//     Lemma 4 attack, each schedule of the exhaustive class, and the JSON
//     scripts of internal/runner/testdata (runner.LoadScript;
//     examples/attacklab prints the Lemma 4 one); the torn-stripe attack
//     drives the same executor with concurrent readers beside it.
//
// # The object table
//
// delta is stored exactly once, in internal/cluster: a small directory of
// fixed 512-slot chunks, every slot an atomic pointer to an immutable entry
// (the object, its hosting server, and two per-copy latches: "had an
// operation triggered", "hosted on its lane's external store"). Object IDs
// are dense, so a lookup is a bounds check and two dependent loads with no
// lock, and the fabric does one on every trigger — it keeps no route, so
// there is nothing to resolve on an object's first touch and nothing to
// re-resolve after a view change. Writers — placement, MoveObject,
// ReplaceObject, RemoveObject — store one slot each under the cluster's one
// mutex, the same critical section that checks the target is a member of
// the current view; a retired ID's slot holds one shared tombstone, which
// reads as a retryable view-change completion and is never reclaimed. A
// move needs no invalidation: a reader gets either the old entry — a copy on
// a frozen server, which answers with the same retryable error — or the new
// one. A placed register, max-register or CAS cell is built in place inside
// its entry, and the entry in an arena block the table owns (4 entries
// first, then as many as the table holds, up to 512), so placing it costs
// no heap object of its own; a fragment store and the clone a move or a
// rollback publishes are heap entries. Whatever copy a slot stops serving —
// moved, rolled back, removed — is retired (baseobj.Object.Retire): it
// drops its payload and refuses every operation, reads too, with the
// retryable ErrSealed, so an arena block that outlives a moved object pins
// none of its bytes. The view epoch still names every membership or placement
// change (AddServer, MoveObject, CommitView, a failure-budget change); it is
// not a cache-coherence protocol. Placing n objects costs O(n) — a store's
// set-up is linear in its keys (E29) — and per-server counts and the
// ascending scans (ObjectsOn, AllObjects, UsedObjects, PerServerBytes) read
// the same table.
//
// # Sweep engine
//
// The bounded model-checking experiments run on a parallel sweep engine
// (internal/runner Sweep): a worker pool fans independent jobs — one per
// adversary schedule, or one per chaos seed — across GOMAXPROCS
// goroutines, each job building its own cluster, fabric, gate, and
// emulation, with no shared state beyond the job counter and a pre-sized
// result slice. RunExhaustive covers the complete f-bounded two-writer
// schedule class (f=1: 208 schedules on 3 servers; f=2: 48256 schedules
// on 5 servers, reduced by release-commutation symmetry), so "0
// violations" is a complete-class result; RunChaosSweep fans seeded chaos
// runs the same way, on the in-process lane (deterministic per seed) or
// the latency lane (the same gate adversary composed with real timing),
// with every per-run generator derived as an independent splitmix
// sub-stream of the seed (internal/seed). cmd/sweep exposes the engine via
// -f, -workers, -lane, and -json. Performance is measured by one ruler,
// bench/ (go run ./bench, BENCHMARK.json), with the go test -bench rungs of
// bench_test.go underneath it (EXPERIMENTS.md).
//
// The root package anchors the module documentation and the
// repository-level benchmark suite (bench_test.go); runnable entry points
// live under cmd/ and examples/.
package repro
