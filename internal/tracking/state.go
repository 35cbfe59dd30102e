package tracking

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/graph"
)

// Checkpoint codec for the tracker: everything the cross-snapshot
// matching depends on — the previous snapshot's communities (in their
// deterministic sorted order), the inter-community tie counts, the id
// allocator, and the accumulated events and histories. The node slot
// column is scratch that every Advance leaves all -1, and is
// deliberately not state.

// SaveState serializes the tracker through e.
func (t *Tracker) SaveState(e *checkpoint.Encoder) {
	e.I64(t.nextID)
	e.I32(t.lastDay)
	e.Bool(t.prev != nil)
	e.U64(uint64(len(t.prev)))
	for _, c := range t.prev {
		e.I64(c.id)
		e.U64(uint64(len(c.nodes)))
		for _, u := range c.nodes {
			e.I32(u)
		}
	}
	// Tie rows of communities with at least one inter-community edge, by
	// community id.
	var rows []int
	for i := range t.prev {
		if t.prevTieOff[i+1] > t.prevTieOff[i] {
			rows = append(rows, i)
		}
	}
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(t.prev[a].id, t.prev[b].id) })
	e.U64(uint64(len(rows)))
	for _, i := range rows {
		e.I64(t.prev[i].id)
		ties := t.prevTies[t.prevTieOff[i]:t.prevTieOff[i+1]]
		e.U64(uint64(len(ties)))
		for _, tc := range ties {
			e.I64(tc.id)
			e.I64(tc.n)
		}
	}
	e.U64(uint64(len(t.events)))
	for _, ev := range t.events {
		e.I32(ev.Day)
		e.U64(uint64(ev.Type))
		e.I64(ev.ID)
		e.I64(ev.Other)
		e.F64(ev.Similarity)
		e.Int(ev.SizeA)
		e.Int(ev.SizeB)
		e.Bool(ev.StrongestTie)
		e.I64(ev.StrongestTieWith)
	}
	e.U64(uint64(len(t.hist)))
	for _, id := range checkpoint.SortedKeys(t.hist) {
		h := t.hist[id]
		e.I64(h.ID)
		e.I32(h.Birth)
		e.I32(h.Death)
		e.I64(h.MergedInto)
		e.U64(uint64(len(h.Features)))
		for _, f := range h.Features {
			e.I32(f.Day)
			e.Int(f.Size)
			e.F64(f.InRatio)
			e.F64(f.SelfSim)
		}
	}
}

// LoadState restores a freshly constructed tracker from d.
func (t *Tracker) LoadState(d *checkpoint.Decoder) error {
	t.nextID = d.I64()
	t.lastDay = d.I32()
	hadPrev := d.Bool()
	n := d.Len()
	t.prev = nil
	if hadPrev {
		t.prev = make([]*community, 0, min(n, 1<<16))
	}
	slotOf := make(map[int64]int, len(t.prev))
	for i := 0; i < n && d.Err() == nil; i++ {
		c := &community{id: d.I64()}
		cn := d.Len()
		c.nodes = make([]graph.NodeID, 0, min(cn, 1<<16))
		for j := 0; j < cn && d.Err() == nil; j++ {
			c.nodes = append(c.nodes, d.I32())
		}
		slotOf[c.id] = len(t.prev)
		t.prev = append(t.prev, c)
	}
	n = d.Len()
	rows := make([][]tie, len(t.prev))
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.I64()
		tn := d.Len()
		ties := make([]tie, 0, min(tn, 1<<16))
		for j := 0; j < tn && d.Err() == nil; j++ {
			ties = append(ties, tie{id: d.I64(), n: d.I64()})
		}
		slot, ok := slotOf[id]
		if !ok {
			if d.Err() != nil {
				break
			}
			return fmt.Errorf("tracking: tie row for unknown community %d", id)
		}
		rows[slot] = ties
	}
	t.prevTieOff = make([]int, len(t.prev)+1)
	t.prevTies = nil
	for i, ties := range rows {
		t.prevTies = append(t.prevTies, ties...)
		t.prevTieOff[i+1] = len(t.prevTies)
	}
	n = d.Len()
	t.events = make([]Event, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		t.events = append(t.events, Event{
			Day:  d.I32(),
			Type: EventType(d.U64()),
			ID:   d.I64(), Other: d.I64(),
			Similarity: d.F64(),
			SizeA:      d.Int(), SizeB: d.Int(),
			StrongestTie: d.Bool(), StrongestTieWith: d.I64(),
		})
	}
	n = d.Len()
	t.hist = make(map[int64]*History, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		h := &History{ID: d.I64(), Birth: d.I32(), Death: d.I32(), MergedInto: d.I64()}
		fn := d.Len()
		h.Features = make([]Features, 0, min(fn, 1<<16))
		for j := 0; j < fn && d.Err() == nil; j++ {
			h.Features = append(h.Features, Features{
				Day: d.I32(), Size: d.Int(), InRatio: d.F64(), SelfSim: d.F64(),
			})
		}
		t.hist[h.ID] = h
	}
	return d.Err()
}
