package tracking

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/graph"
)

// refTracker is a map-based implementation of the tracker — a node ->
// identity map, a prev-node inverted-index map and a pair-keyed overlap
// map in matching, maps of maps for inter-community ties, and a
// per-community member set — kept as an independent reference for the
// dense tracker in tracking.go. The tests below require the two to agree
// on snapshots, events, histories and checkpoint bytes.

type refCommunity struct {
	id    int64
	nodes []graph.NodeID
	set   map[graph.NodeID]struct{}
}

type refTracker struct {
	MinSize          int
	MergeContainment float64

	nextID  int64
	prev    []*refCommunity
	prevTie map[int64]map[int64]int64 // prev snapshot's inter-community edge counts
	selfSim map[int64]float64         // current snapshot's matched similarity per id
	events  []Event
	hist    map[int64]*History
	lastDay int32
}

func newRefTracker(minSize int) *refTracker {
	if minSize < 1 {
		minSize = 1
	}
	return &refTracker{MinSize: minSize, hist: make(map[int64]*History), lastDay: -1}
}

func (t *refTracker) Advance(day int32, g graph.View, assign Assignment) *SnapshotResult {
	t.lastDay = day
	byLabel := map[int32][]graph.NodeID{}
	for u, c := range assign {
		if c >= 0 {
			byLabel[c] = append(byLabel[c], graph.NodeID(u))
		}
	}
	var cur []*refCommunity
	for _, nodes := range byLabel {
		if len(nodes) < t.MinSize {
			continue
		}
		set := make(map[graph.NodeID]struct{}, len(nodes))
		for _, u := range nodes {
			set[u] = struct{}{}
		}
		cur = append(cur, &refCommunity{nodes: nodes, set: set})
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].nodes[0] < cur[j].nodes[0] })

	simSum, simCount := t.match(day, cur)

	res := &SnapshotResult{
		Day:           day,
		Communities:   make(map[int64][]graph.NodeID, len(cur)),
		NodeCommunity: make(map[graph.NodeID]int64),
	}
	if simCount > 0 {
		res.AvgSimilarity = simSum / float64(simCount)
	}
	nodeComm := make(map[graph.NodeID]int64, g.NumNodes()/2)
	for _, c := range cur {
		res.Communities[c.id] = c.nodes
		for _, u := range c.nodes {
			nodeComm[u] = c.id
			res.NodeCommunity[u] = c.id
		}
	}
	t.recordFeatures(day, g, cur, nodeComm)
	t.prevTie = refInterCommunityTies(g, nodeComm)
	t.prev = cur
	return res
}

func (t *refTracker) match(day int32, cur []*refCommunity) (simSum float64, simCount int) {
	t.selfSim = make(map[int64]float64, len(cur))
	if t.prev == nil {
		for _, c := range cur {
			c.id = t.newID(day)
		}
		return 0, 0
	}
	prevOf := map[graph.NodeID]int{}
	for i, p := range t.prev {
		for _, u := range p.nodes {
			prevOf[u] = i
		}
	}
	type pair struct{ i, j int }
	overlap := map[pair]int{}
	for j, c := range cur {
		for _, u := range c.nodes {
			if i, ok := prevOf[u]; ok {
				overlap[pair{i, j}]++
			}
		}
	}
	pairs := make([]pair, 0, len(overlap))
	for p := range overlap {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	sim := func(i, j int) float64 {
		inter := overlap[pair{i, j}]
		union := len(t.prev[i].nodes) + len(cur[j].nodes) - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	}
	containment := func(i, j int) float64 {
		return float64(overlap[pair{i, j}]) / float64(len(t.prev[i].nodes))
	}
	bestNewFor := make([]int, len(t.prev)) // prev i -> cur j (or -1)
	bestNewSim := make([]float64, len(t.prev))
	for i := range bestNewFor {
		bestNewFor[i] = -1
	}
	bestOldFor := make([]int, len(cur)) // cur j -> prev i (or -1)
	bestOldSim := make([]float64, len(cur))
	for j := range bestOldFor {
		bestOldFor[j] = -1
	}
	for _, p := range pairs {
		s := sim(p.i, p.j)
		if s > bestNewSim[p.i] {
			bestNewSim[p.i], bestNewFor[p.i] = s, p.j
		}
		if s > bestOldSim[p.j] {
			bestOldSim[p.j], bestOldFor[p.j] = s, p.i
		}
	}

	claimants := make([][]int, len(cur))
	for i, j := range bestNewFor {
		if j >= 0 {
			claimants[j] = append(claimants[j], i)
		}
	}
	survivedAs := make([]int, len(t.prev)) // prev i -> cur j whose id it carries, or -1
	for i := range survivedAs {
		survivedAs[i] = -1
	}
	for j, c := range cur {
		cl := claimants[j]
		if len(cl) == 0 {
			c.id = t.newID(day)
			t.events = append(t.events, Event{Day: day, Type: Birth, ID: c.id})
			continue
		}
		winner := cl[0]
		for _, i := range cl[1:] {
			if sim(i, j) > sim(winner, j) {
				winner = i
			}
		}
		c.id = t.prev[winner].id
		survivedAs[winner] = j
		t.selfSim[c.id] = sim(winner, j)
		simSum += sim(winner, j)
		simCount++
	}

	majority := make([][]int, len(cur))
	bestDest := make([]int, len(t.prev)) // prev i -> argmax_j overlap, or -1
	for i := range bestDest {
		bestDest[i] = -1
	}
	bestOv := make([]int, len(t.prev))
	for _, p := range pairs {
		if ov := overlap[p]; ov > bestOv[p.i] {
			bestOv[p.i], bestDest[p.i] = ov, p.j
		}
	}
	for i := range t.prev {
		if j := bestDest[i]; j >= 0 && containment(i, j) > t.mergeContainment() {
			majority[j] = append(majority[j], i)
		}
	}
	for i, p := range t.prev {
		if survivedAs[i] >= 0 {
			continue
		}
		j := bestDest[i]
		if j < 0 || containment(i, j) <= t.mergeContainment() {
			c := 0.0
			if j >= 0 {
				c = containment(i, j)
			}
			t.events = append(t.events, Event{Day: day, Type: Death, ID: p.id, Similarity: c})
			if h := t.hist[p.id]; h != nil {
				h.Death = day
			}
			continue
		}
		unionIDs := map[int64]bool{cur[j].id: true}
		sizeB := 0
		for _, k := range majority[j] {
			unionIDs[t.prev[k].id] = true
			if k != i && len(t.prev[k].nodes) > sizeB {
				sizeB = len(t.prev[k].nodes)
			}
		}
		if sizeB == 0 {
			sizeB = len(cur[j].nodes)
		}
		tieComm := t.strongestTieOf(p.id)
		t.events = append(t.events, Event{
			Day:              day,
			Type:             Merge,
			ID:               p.id,
			Other:            cur[j].id,
			Similarity:       sim(i, j),
			SizeA:            len(p.nodes),
			SizeB:            sizeB,
			StrongestTie:     tieComm != 0 && unionIDs[tieComm],
			StrongestTieWith: tieComm,
		})
		if h := t.hist[p.id]; h != nil {
			h.Death = day
			h.MergedInto = cur[j].id
		}
	}

	successors := make([][]int, len(t.prev))
	for j, i := range bestOldFor {
		if i >= 0 {
			successors[i] = append(successors[i], j)
		}
	}
	for i, succ := range successors {
		if len(succ) < 2 {
			continue
		}
		sort.Slice(succ, func(a, b int) bool {
			return len(cur[succ[a]].nodes) > len(cur[succ[b]].nodes)
		})
		t.events = append(t.events, Event{
			Day:        day,
			Type:       Split,
			ID:         t.prev[i].id,
			Similarity: bestNewSim[i],
			SizeA:      len(cur[succ[0]].nodes),
			SizeB:      len(cur[succ[1]].nodes),
		})
	}

	return simSum, simCount
}

func (t *refTracker) newID(day int32) int64 {
	t.nextID++
	id := t.nextID
	t.hist[id] = &History{ID: id, Birth: day, Death: -1}
	return id
}

func (t *refTracker) strongestTieOf(id int64) int64 {
	ties := t.prevTie[id]
	var bestComm int64
	var best int64 = -1
	for c, n := range ties {
		if n > best || (n == best && c < bestComm) {
			best, bestComm = n, c
		}
	}
	return bestComm
}

func (t *refTracker) recordFeatures(day int32, g graph.View, cur []*refCommunity, nodeComm map[graph.NodeID]int64) {
	for _, c := range cur {
		h := t.hist[c.id]
		if h == nil {
			h = &History{ID: c.id, Birth: day, Death: -1}
			t.hist[c.id] = h
		}
		h.Death = -1 // it exists now; resurrect if it was marked dead this day
		intra := int64(0)
		degSum := int64(0)
		for _, u := range c.nodes {
			degSum += int64(g.Degree(u))
			g.ForEachNeighbor(u, func(v graph.NodeID) {
				if nodeComm[v] == c.id {
					intra++
				}
			})
		}
		inRatio := 0.0
		if degSum > 0 {
			inRatio = float64(intra) / float64(degSum) // intra counted twice / degsum
		}
		h.Features = append(h.Features, Features{Day: day, Size: len(c.nodes), InRatio: inRatio, SelfSim: t.selfSim[c.id]})
	}
}

func refInterCommunityTies(g graph.View, nodeComm map[graph.NodeID]int64) map[int64]map[int64]int64 {
	out := map[int64]map[int64]int64{}
	g.ForEachEdge(func(u, v graph.NodeID) {
		cu, okU := nodeComm[u]
		cv, okV := nodeComm[v]
		if !okU || !okV || cu == cv {
			return
		}
		add := func(a, b int64) {
			m := out[a]
			if m == nil {
				m = map[int64]int64{}
				out[a] = m
			}
			m[b]++
		}
		add(cu, cv)
		add(cv, cu)
	})
	return out
}

func (t *refTracker) SaveState(e *checkpoint.Encoder) {
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
	e.U64(uint64(len(t.prevTie)))
	for _, id := range checkpoint.SortedKeys(t.prevTie) {
		e.I64(id)
		ties := t.prevTie[id]
		e.U64(uint64(len(ties)))
		for _, other := range checkpoint.SortedKeys(ties) {
			e.I64(other)
			e.I64(ties[other])
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

func (t *refTracker) mergeContainment() float64 { return t.MergeContainment }

// snapshotScript is a reproducible sequence of snapshots: a growing graph
// with planted groups and inter-group ties, and per-snapshot assignments
// evolved by merges, splits, dissolutions and noise so every event type
// occurs.
type snapshotScript struct {
	graphs  []*graph.Frozen
	assigns []Assignment
}

func newSnapshotScript(seed int64, snapshots int) *snapshotScript {
	rng := rand.New(rand.NewSource(seed))
	groups := 4 + rng.Intn(8)
	g := graph.New(0)
	s := &snapshotScript{}
	var labels []int32
	nextLabel := int32(groups)
	for snap := 0; snap < snapshots; snap++ {
		// Growth: new nodes join a planted group, edges mostly inside it.
		n := g.NumNodes()
		grow := 20 + rng.Intn(40)
		for u := n; u < n+grow; u++ {
			labels = append(labels, int32(rng.Intn(groups)))
		}
		total := n + grow
		g.EnsureNode(graph.NodeID(total - 1))
		for e := 0; e < 4*grow; e++ {
			u := rng.Intn(total)
			v := rng.Intn(total)
			if rng.Float64() < 0.8 {
				// Pick v from u's planted group by rejection.
				for k := 0; k < 20 && int(labels[v])%groups != int(labels[u])%groups; k++ {
					v = rng.Intn(total)
				}
			}
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
		// Evolve the assignment: merge, split, dissolve, noise.
		switch rng.Intn(4) {
		case 0: // merge two labels
			a, b := labels[rng.Intn(total)], labels[rng.Intn(total)]
			for u := range labels {
				if labels[u] == a {
					labels[u] = b
				}
			}
		case 1: // split a label in two
			a := labels[rng.Intn(total)]
			for u := range labels {
				if labels[u] == a && rng.Intn(2) == 0 {
					labels[u] = nextLabel
				}
			}
			nextLabel++
		case 2: // dissolve a label across the others
			a := labels[rng.Intn(total)]
			for u := range labels {
				if labels[u] == a {
					labels[u] = int32(rng.Intn(int(nextLabel)))
				}
			}
		}
		for k := 0; k < total/10; k++ {
			labels[rng.Intn(total)] = int32(rng.Intn(int(nextLabel)))
		}
		assign := make(Assignment, total)
		for u, l := range labels {
			assign[u] = l
			if rng.Float64() < 0.05 {
				assign[u] = -1 // unassigned
			}
		}
		s.graphs = append(s.graphs, g.Freeze())
		s.assigns = append(s.assigns, assign)
	}
	return s
}

func saveBytes(t *testing.T, save func(*checkpoint.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := checkpoint.NewEncoder(&buf)
	save(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameSnapshot compares a dense tracker's snapshot with the oracle's,
// including the node index that the dense tracker builds on demand.
func sameSnapshot(got, want *SnapshotResult) bool {
	got.IndexNodes()
	return got.Day == want.Day && reflect.DeepEqual(got.Communities, want.Communities) &&
		math.Float64bits(got.AvgSimilarity) == math.Float64bits(want.AvgSimilarity) &&
		reflect.DeepEqual(got.NodeCommunity, want.NodeCommunity)
}

// TestTrackerMatchesMapOracle drives the dense tracker and the map-based
// reference through the same snapshot scripts and requires identical
// snapshots, events, histories and checkpoint bytes.
func TestTrackerMatchesMapOracle(t *testing.T) {
	kinds := map[EventType]int{}
	for seed := int64(0); seed < 24; seed++ {
		s := newSnapshotScript(seed, 12)
		minSize := []int{1, 3, 5, 10}[seed%4]
		containment := []float64{0, 0.5}[seed%2]
		tr, ref := NewTracker(minSize), newRefTracker(minSize)
		tr.MergeContainment, ref.MergeContainment = containment, containment
		for k := range s.graphs {
			day := int32(3 * k)
			got := tr.Advance(day, s.graphs[k], s.assigns[k])
			want := ref.Advance(day, s.graphs[k], s.assigns[k])
			if !sameSnapshot(got, want) {
				t.Fatalf("seed %d snapshot %d: snapshot results differ", seed, k)
			}
		}
		if !reflect.DeepEqual(tr.Events(), ref.events) {
			t.Fatalf("seed %d: events differ:\n got %v\nwant %v", seed, tr.Events(), ref.events)
		}
		if !reflect.DeepEqual(tr.Histories(), ref.hist) {
			t.Fatalf("seed %d: histories differ", seed)
		}
		if !bytes.Equal(saveBytes(t, tr.SaveState), saveBytes(t, ref.SaveState)) {
			t.Fatalf("seed %d: checkpoint bytes differ", seed)
		}
		for _, ev := range tr.Events() {
			kinds[ev.Type]++
		}
	}
	for _, k := range []EventType{Birth, Death, Merge, Split} {
		if kinds[k] == 0 {
			t.Errorf("no %v event across the scripts; the oracle comparison never exercised it", k)
		}
	}
}

// TestTrackerCheckpointRoundTrip: SaveState → LoadState → SaveState is
// byte-identical, and a tracker restored mid-run continues exactly like
// one that was never interrupted.
func TestTrackerCheckpointRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := newSnapshotScript(seed, 12)
		split := 2 + int(seed)%8
		whole := NewTracker(3)
		for k := 0; k < split; k++ {
			whole.Advance(int32(3*k), s.graphs[k], s.assigns[k])
		}
		saved := saveBytes(t, whole.SaveState)
		restored := NewTracker(3)
		if err := restored.LoadState(checkpoint.NewDecoder(bytes.NewReader(saved))); err != nil {
			t.Fatal(err)
		}
		if again := saveBytes(t, restored.SaveState); !bytes.Equal(again, saved) {
			t.Fatalf("seed %d: save/load/save changed the bytes", seed)
		}
		for k := split; k < len(s.graphs); k++ {
			day := int32(3 * k)
			a := whole.Advance(day, s.graphs[k], s.assigns[k])
			b := restored.Advance(day, s.graphs[k], s.assigns[k])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d snapshot %d: restored tracker diverged", seed, k)
			}
		}
		if !reflect.DeepEqual(whole.Events(), restored.Events()) || !reflect.DeepEqual(whole.Histories(), restored.Histories()) {
			t.Fatalf("seed %d: restored tracker's events or histories diverged", seed)
		}
		if !bytes.Equal(saveBytes(t, whole.SaveState), saveBytes(t, restored.SaveState)) {
			t.Fatalf("seed %d: final checkpoint bytes differ", seed)
		}
	}
}
