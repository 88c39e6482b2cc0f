package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one node of an op's tree: async.op ⊃ fabric.trigger ⊃
// lane.transit ⊃ baseobj.apply. Spans of one op share OpID. Times are
// nanoseconds since the traced stack's epoch.
type span struct {
	OpID   int    `json:"op"`
	ID     int    `json:"id"`     // index within the op's tree
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"span"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its children cover.
	Self int64 `json:"self_ns"`
	// Late marks a fabric.trigger whose response landed after its op had
	// completed (work beyond the quorum); Open one that never responded (a
	// crashed server). Their End is clamped to the parent's so the tree
	// nests; RealEnd keeps the stamp.
	Late    bool   `json:"late,omitempty"`
	Open    bool   `json:"open,omitempty"`
	RealEnd int64  `json:"real_end_ns,omitempty"`
	Token   uint64 `json:"token,omitempty"`
	Server  int    `json:"server,omitempty"`
	Key     int    `json:"key"`
	Write   bool   `json:"write"`
}

// tree builds one sampled op's span tree.
func (ts *tracedStack) tree(opID int, so *sampledOp) []span {
	o := so.op
	root := span{OpID: opID, ID: 0, Parent: -1, Name: "async.op", Start: o.call, End: o.done, Key: so.client.keyIx, Write: o.write}
	spans := []span{root}
	add := func(s span) int {
		s.OpID, s.ID, s.Key, s.Write = opID, len(spans), root.Key, root.Write
		spans = append(spans, s)
		return s.ID
	}
	rec := ts.recs[so.shard]
	for _, token := range o.tokens {
		t := rec.peek(token)
		trig := span{Parent: 0, Name: "fabric.trigger", Start: t.trigger, End: t.respond, Token: token, Server: int(t.server)}
		switch {
		case t.respond == 0:
			trig.Open, trig.End = true, o.done
		case t.respond > o.done:
			trig.Late, trig.RealEnd, trig.End = true, t.respond, o.done
		}
		ti := add(trig)
		if t.deliver == 0 {
			continue
		}
		end := t.complete
		if end == 0 || end > spans[ti].End {
			end = spans[ti].End
		}
		li := add(span{Parent: ti, Name: "lane.transit", Start: t.deliver, End: end, Token: token, Server: int(t.server)})
		if t.applyEnd != 0 && t.applyEnd <= end {
			add(span{Parent: li, Name: "baseobj.apply", Start: t.applyStart, End: t.applyEnd, Token: token, Server: int(t.server)})
		}
	}
	for i := range spans {
		spans[i].Self = (spans[i].End - spans[i].Start) - covered(spans, i)
	}
	return spans
}

// covered is how much of span i's interval its children cover (the union,
// since sibling triggers of one quorum round overlap).
func covered(spans []span, i int) int64 {
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent == i {
			a, b := max(s.Start, spans[i].Start), min(s.End, spans[i].End)
			if b > a {
				kids = append(kids, iv{a, b})
			}
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
	var total, edge int64
	for _, k := range kids {
		if k.a > edge {
			edge = k.a
		}
		if k.b > edge {
			total += k.b - edge
			edge = k.b
		}
	}
	return total
}

// writeSpans writes the sampled ops' trees as JSON lines.
func (ts *tracedStack) writeSpans(path string, st *traceStats) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for id, so := range st.sampledOps {
		for _, s := range ts.tree(id, so) {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
