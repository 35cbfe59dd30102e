package community

import (
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/tracking"
)

// Checkpoint codecs for the §4 pipeline. A Detector's externalized state
// is exactly what makes a δ's detection resumable: the previous
// snapshot's Louvain assignment (the seed chain), the tracker, and the
// accumulated per-snapshot results. Options are construction-time
// knowledge — the planner's config fingerprint guards their
// compatibility — so they are not serialized.

// stageStateV1 versions the §4 stages' checkpoint blobs.
const stageStateV1 = 1

// saveState serializes the detector through e.
func (d *Detector) saveState(e *checkpoint.Encoder) error {
	if d.err != nil {
		// A latched Louvain failure is not a resumable state.
		return d.err
	}
	e.Bool(d.prevComm != nil)
	e.I32s(d.prevComm)
	d.tracker.SaveState(e)
	e.U64(uint64(len(d.res.Stats)))
	for _, s := range d.res.Stats {
		e.I32(s.Day)
		e.Int(s.Nodes)
		e.I64(s.Edges)
		e.F64(s.Modularity)
		e.F64(s.AvgSimilarity)
		e.Int(s.NumCommunities)
		e.F64(s.Top5Coverage)
		for _, c := range s.TopCoverage {
			e.F64(c)
		}
	}
	e.U64(uint64(len(d.res.SizeDists)))
	for _, day := range checkpoint.SortedKeys(d.res.SizeDists) {
		e.I32(day)
		sizes := d.res.SizeDists[day]
		e.U64(uint64(len(sizes)))
		for _, s := range sizes {
			e.Int(s)
		}
	}
	e.I32(d.res.LastDay)
	e.Bool(d.res.Final != nil)
	if f := d.res.Final; f != nil {
		e.I32(f.Day)
		e.F64(f.AvgSimilarity)
		e.U64(uint64(len(f.Communities)))
		for _, id := range checkpoint.SortedKeys(f.Communities) {
			e.I64(id)
			nodes := f.Communities[id]
			e.U64(uint64(len(nodes)))
			for _, u := range nodes {
				e.I32(u)
			}
		}
	}
	return e.Err()
}

// loadState restores a freshly constructed detector from dec.
func (d *Detector) loadState(dec *checkpoint.Decoder) error {
	hadPrev := dec.Bool()
	d.prevComm = dec.I32s()
	if !hadPrev {
		d.prevComm = nil
	}
	if err := d.tracker.LoadState(dec); err != nil {
		return err
	}
	n := dec.Len()
	d.res.Stats = make([]SnapshotStat, 0, min(n, 1<<16))
	for i := 0; i < n && dec.Err() == nil; i++ {
		s := SnapshotStat{
			Day: dec.I32(), Nodes: dec.Int(), Edges: dec.I64(),
			Modularity: dec.F64(), AvgSimilarity: dec.F64(),
			NumCommunities: dec.Int(), Top5Coverage: dec.F64(),
		}
		for j := range s.TopCoverage {
			s.TopCoverage[j] = dec.F64()
		}
		d.res.Stats = append(d.res.Stats, s)
	}
	n = dec.Len()
	d.res.SizeDists = make(map[int32][]int, min(n, 1<<16))
	for i := 0; i < n && dec.Err() == nil; i++ {
		day := dec.I32()
		sn := dec.Len()
		sizes := make([]int, 0, min(sn, 1<<16))
		for j := 0; j < sn && dec.Err() == nil; j++ {
			sizes = append(sizes, dec.Int())
		}
		d.res.SizeDists[day] = sizes
	}
	d.res.LastDay = dec.I32()
	if dec.Bool() {
		f := &tracking.SnapshotResult{
			Day:           dec.I32(),
			AvgSimilarity: dec.F64(),
			Communities:   map[int64][]graph.NodeID{},
		}
		cn := dec.Len()
		for i := 0; i < cn && dec.Err() == nil; i++ {
			id := dec.I64()
			nn := dec.Len()
			nodes := make([]graph.NodeID, 0, min(nn, 1<<16))
			for j := 0; j < nn && dec.Err() == nil; j++ {
				nodes = append(nodes, dec.I32())
			}
			f.Communities[id] = nodes
		}
		d.res.Final = f
	}
	return dec.Err()
}

// SaveState implements engine.Checkpointer for the single-δ stage.
func (s *Stage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	if err := s.det.saveState(e); err != nil {
		return err
	}
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *Stage) LoadState(r io.Reader) error {
	d := checkpoint.NewDecoder(r)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("community: checkpoint state version %d", v)
	}
	return s.det.loadState(d)
}

// SaveState implements engine.Checkpointer for the Fig 7 stage: the
// per-node activity columns and the buffered inter-arrival gaps.
func (s *UsersStage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	e.U64(uint64(len(s.nodes)))
	for _, a := range s.nodes {
		e.I32(a.lastEdge)
		e.Bool(a.hasEdge)
	}
	e.U64(uint64(len(s.gaps)))
	for _, g := range s.gaps {
		e.I32(g.u)
		e.I32(g.gap)
	}
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *UsersStage) LoadState(r io.Reader) error {
	d := checkpoint.NewDecoder(r)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("users: checkpoint state version %d", v)
	}
	n := d.Len()
	s.nodes = make([]nodeActivity, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		s.nodes = append(s.nodes, nodeActivity{lastEdge: d.I32(), hasEdge: d.Bool()})
	}
	n = d.Len()
	s.gaps = make([]nodeGap, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		s.gaps = append(s.gaps, nodeGap{u: d.I32(), gap: d.I32()})
	}
	return d.Err()
}

// SaveState implements engine.Checkpointer for the δ-sweep. It runs at
// the engine's Sync barrier on the replay goroutine, so it first joins
// the detector tasks still in flight from the current snapshot — the
// per-δ states must be quiescent before serialization. Each detector's
// state is recorded under its δ so a mismatched sweep grid fails loudly.
func (s *SweepStage) SaveState(w io.Writer) error {
	s.join(nil)
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	e.U64(uint64(len(s.dets)))
	for i, det := range s.dets {
		e.F64(s.deltas[i])
		if err := det.saveState(e); err != nil {
			return fmt.Errorf("δ=%v: %w", s.deltas[i], err)
		}
	}
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *SweepStage) LoadState(r io.Reader) error {
	d := checkpoint.NewDecoder(r)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("sweep: checkpoint state version %d", v)
	}
	if n := d.Len(); d.Err() == nil && n != len(s.dets) {
		return fmt.Errorf("sweep: checkpoint has %d detectors, stage %d", n, len(s.dets))
	}
	for i, det := range s.dets {
		if delta := d.F64(); d.Err() == nil && delta != s.deltas[i] {
			return fmt.Errorf("sweep: checkpoint δ[%d]=%v, stage δ=%v", i, delta, s.deltas[i])
		}
		if err := det.loadState(d); err != nil {
			return fmt.Errorf("δ=%v: %w", s.deltas[i], err)
		}
	}
	return d.Err()
}
