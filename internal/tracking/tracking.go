// Package tracking follows communities across graph snapshots the way the
// paper does in §4.1: communities detected on consecutive snapshots are
// matched by Jaccard similarity, and the matching is interpreted as
// continuation, birth, death, merge, or split events.
//
// The paper's definitions, which this package implements literally:
//
//   - a community A *splits* at snapshot i when A is the highest-correlated
//     previous community for at least two communities at snapshot i+1; the
//     successor most similar to A keeps A's identity, the others are born;
//   - at least two communities A, B *merge* into C when C is the best match
//     of each; C takes the identity of the most similar parent, the other
//     parents die;
//   - communities matched one-to-one continue under the same identity.
//
// The tracker also records, per snapshot, the structural features used by
// the paper's merge predictor (§4.3) and the inter-community tie strengths
// used for the strongest-tie merge-destination analysis (Fig 6c).
package tracking

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/graph"
)

// EventType classifies a community lifecycle event.
type EventType uint8

const (
	// Birth: a community with no sufficiently similar predecessor.
	Birth EventType = iota
	// Death: a community absorbed by a merge (its identity ends).
	Death
	// Merge: two or more communities fused; emitted once per dying parent.
	Merge
	// Split: one community divided; emitted once per split parent.
	Split
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case Birth:
		return "birth"
	case Death:
		return "death"
	case Merge:
		return "merge"
	case Split:
		return "split"
	default:
		return "unknown"
	}
}

// Event is one community lifecycle event.
type Event struct {
	Day  int32
	Type EventType
	// ID is the community the event happened to. For Merge it is the
	// dying parent; for Split the splitting parent; for Birth the new
	// community.
	ID int64
	// Other is the counterparty: the surviving community for Merge, zero
	// otherwise.
	Other int64
	// Similarity is the Jaccard similarity that drove the decision.
	Similarity float64
	// SizeA and SizeB record, for Merge and Split, the sizes of the two
	// largest communities involved (used for Fig 6a): for merges, the
	// dying and surviving parents; for splits, the two largest children.
	SizeA, SizeB int
	// StrongestTie reports, for Merge events, whether the surviving
	// community was the one with the largest edge count to the dying
	// community in the previous snapshot (Fig 6c).
	StrongestTie bool
	// StrongestTieWith is the community that actually had the strongest
	// tie to the dying one (diagnostic; 0 when it had no ties).
	StrongestTieWith int64
}

// Features is the per-snapshot structural description of a community used
// by the merge predictor (§4.3): size, in-degree ratio (edges inside the
// community over the total degree of its members), and self-similarity to
// the community's previous incarnation.
type Features struct {
	Day     int32
	Size    int
	InRatio float64
	SelfSim float64
}

// History is the lifetime record of one tracked community identity.
type History struct {
	ID    int64
	Birth int32 // day first seen
	Death int32 // day absorbed; -1 while alive
	// MergedInto is the surviving community for dead ones, 0 otherwise.
	MergedInto int64
	// Features has one entry per snapshot in which the community existed.
	Features []Features
}

// Alive reports whether the community was still tracked at the last
// processed snapshot.
func (h *History) Alive() bool { return h.Death < 0 }

// Lifetime returns the community's lifetime in days: death (or `now` for
// the living) minus birth.
func (h *History) Lifetime(now int32) int32 {
	if h.Death >= 0 {
		return h.Death - h.Birth
	}
	return now - h.Birth
}

// community is one tracked community instance in the current snapshot.
type community struct {
	id    int64
	nodes []graph.NodeID
}

// tie is one entry of a community's inter-community edge counts: the
// other community's identity and the number of edges between the two.
type tie struct {
	id, n int64
}

// Tracker matches communities across snapshots and accumulates events,
// histories, and tie information.
type Tracker struct {
	// MinSize filters out communities smaller than this (the paper uses
	// 10 to "avoid small cliques").
	MinSize int
	// MergeContainment is the minimum fraction of a dying community's
	// nodes that must land in the destination (the community receiving
	// the most of its members) for the event to count as a merge rather
	// than a dissolution. The default 0 mirrors the paper, which treats
	// merging as the only cause of community death: any vanishing
	// community with surviving members is merged into its destination.
	// Raise it (e.g. to 0.5) for a strict "contributed most of their
	// nodes" reading — the ablation bench compares both.
	MergeContainment float64

	nextID int64
	prev   []*community
	// The previous snapshot's inter-community edge counts: prev[i]'s
	// entries are prevTies[prevTieOff[i]:prevTieOff[i+1]], sorted by the
	// other community's id.
	prevTieOff []int
	prevTies   []tie
	events     []Event
	hist       map[int64]*History
	lastDay    int32

	// slot is scratch over node ids: during Advance, slot[u] is the index
	// in the current snapshot's community list of u's community, or -1.
	// It is all -1 between calls.
	slot []int32
}

// NewTracker creates a tracker with the given minimum community size.
func NewTracker(minSize int) *Tracker {
	if minSize < 1 {
		minSize = 1
	}
	return &Tracker{MinSize: minSize, hist: make(map[int64]*History), lastDay: -1}
}

// Assignment is a per-node community labeling, -1 for unassigned nodes.
// Labels index a per-label column, so they should be dense (at most
// len(assignment)-1, as Louvain's are); they carry no cross-snapshot
// meaning (identity comes from the tracker).
type Assignment []int32

// SnapshotResult reports the tracked communities of one snapshot.
type SnapshotResult struct {
	Day int32
	// Communities maps tracked identity -> member nodes.
	Communities map[int64][]graph.NodeID
	// AvgSimilarity is the mean Jaccard similarity between matched
	// community incarnations in the previous and current snapshot
	// (the robustness metric of Fig 4b). Zero when nothing matched.
	AvgSimilarity float64
	// NodeCommunity maps node -> tracked identity (only community nodes).
	// Advance leaves it nil; IndexNodes fills it for the snapshots whose
	// per-node lookup is actually read.
	NodeCommunity map[graph.NodeID]int64
}

// IndexNodes builds NodeCommunity from Communities.
func (r *SnapshotResult) IndexNodes() {
	n := 0
	for _, nodes := range r.Communities {
		n += len(nodes)
	}
	r.NodeCommunity = make(map[graph.NodeID]int64, n)
	for id, nodes := range r.Communities {
		for _, u := range nodes {
			r.NodeCommunity[u] = id
		}
	}
}

// Advance feeds the tracker the next snapshot: the graph as of `day` and a
// community assignment for its nodes. It returns the tracked view. The
// graph is only read, so per-δ trackers fanned out by the sweep can key
// their histories off one shared frozen snapshot (graph.Frozen) instead of
// each maintaining a private live graph.
func (t *Tracker) Advance(day int32, g graph.View, assign Assignment) *SnapshotResult {
	t.lastDay = day
	cur := t.group(assign)

	// Claim each member's slot for the whole Advance: match reads it for
	// the overlaps, recordFeatures for intra and inter-community edges.
	n := max(len(assign), g.NumNodes())
	for len(t.slot) < n {
		t.slot = append(t.slot, -1)
	}
	for j, c := range cur {
		for _, u := range c.nodes {
			t.slot[u] = int32(j)
		}
	}
	selfSim, simSum, simCount := t.match(day, cur)
	t.recordFeatures(day, g, cur, selfSim)
	for _, c := range cur {
		for _, u := range c.nodes {
			t.slot[u] = -1
		}
	}

	res := &SnapshotResult{
		Day:         day,
		Communities: make(map[int64][]graph.NodeID, len(cur)),
	}
	if simCount > 0 {
		res.AvgSimilarity = simSum / float64(simCount)
	}
	for _, c := range cur {
		res.Communities[c.id] = c.nodes
	}
	t.prev = cur
	return res
}

// group buckets nodes by label and keeps the communities of at least
// MinSize nodes, ordered by their smallest member. Members are ascending
// within a community, and labels first appear in ascending order of their
// smallest member, so a single counting pass yields that order. nil when
// no community is kept.
func (t *Tracker) group(assign Assignment) []*community {
	maxL := int32(-1)
	for _, c := range assign {
		maxL = max(maxL, c)
	}
	// count[c] is label c's size, then its write cursor in the shared
	// member array (-1 once the label is dropped).
	count := make([]int32, maxL+1)
	var order []int32 // labels by first appearance
	for _, c := range assign {
		if c >= 0 {
			if count[c] == 0 {
				order = append(order, c)
			}
			count[c]++
		}
	}
	var cur []*community
	kept := 0
	for _, c := range order {
		if int(count[c]) >= t.MinSize {
			kept += int(count[c])
		}
	}
	members := make([]graph.NodeID, kept)
	at := int32(0)
	for _, c := range order {
		size := count[c]
		if int(size) < t.MinSize {
			count[c] = -1
			continue
		}
		cur = append(cur, &community{nodes: members[at : at+size : at+size]})
		count[c] = at
		at += size
	}
	for u, c := range assign {
		if c >= 0 && count[c] >= 0 {
			members[count[c]] = graph.NodeID(u)
			count[c]++
		}
	}
	return cur
}

// pair is one nonzero overlap: ov members of previous community i are in
// current community j.
type pair struct{ i, j, ov int32 }

// jaccard is the Jaccard similarity of two communities of sizes a and b
// sharing inter members.
func jaccard(inter, a, b int) float64 {
	union := a + b - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// match assigns identities to cur communities and emits events. It
// returns the matched similarity per cur community and the sum and count
// of matched similarities. t.slot must map every cur member to its index.
func (t *Tracker) match(day int32, cur []*community) (selfSim []float64, simSum float64, simCount int) {
	selfSim = make([]float64, len(cur))
	if t.prev == nil {
		for _, c := range cur {
			c.id = t.newID(day)
		}
		return selfSim, 0, 0
	}
	// Overlaps between prev i and cur j, counted per prev community into a
	// dense per-slot counter. Pairs come out sorted by (i, j), the order
	// in which equal-similarity ties break (lowest index).
	var pairs []pair
	cnt := make([]int32, len(cur))
	var touched []int32
	for i, p := range t.prev {
		for _, u := range p.nodes {
			if int(u) >= len(t.slot) {
				continue
			}
			if j := t.slot[u]; j >= 0 {
				if cnt[j] == 0 {
					touched = append(touched, j)
				}
				cnt[j]++
			}
		}
		slices.Sort(touched)
		for _, j := range touched {
			pairs = append(pairs, pair{int32(i), j, cnt[j]})
			cnt[j] = 0
		}
		touched = touched[:0]
	}
	sim := func(p pair) float64 {
		return jaccard(int(p.ov), len(t.prev[p.i].nodes), len(cur[p.j].nodes))
	}
	// Best matches in both directions, and each prev community's
	// destination: the cur community receiving most of its nodes.
	bestNewFor := make([]int, len(t.prev)) // prev i -> cur j (or -1)
	bestNewSim := make([]float64, len(t.prev))
	bestDest := make([]int, len(t.prev)) // prev i -> argmax_j overlap, or -1
	bestOv := make([]int, len(t.prev))
	for i := range bestNewFor {
		bestNewFor[i] = -1
		bestDest[i] = -1
	}
	bestOldFor := make([]int, len(cur)) // cur j -> prev i (or -1)
	bestOldSim := make([]float64, len(cur))
	for j := range bestOldFor {
		bestOldFor[j] = -1
	}
	for _, p := range pairs {
		s := sim(p)
		if s > bestNewSim[p.i] {
			bestNewSim[p.i], bestNewFor[p.i] = s, int(p.j)
		}
		if s > bestOldSim[p.j] {
			bestOldSim[p.j], bestOldFor[p.j] = s, int(p.i)
		}
		if ov := int(p.ov); ov > bestOv[p.i] {
			bestOv[p.i], bestDest[p.i] = ov, int(p.j)
		}
	}
	// containment(i) is the fraction of prev community i's nodes that
	// ended up in its destination. The paper's merge definition requires
	// parents to "contribute most of their nodes" to the destination;
	// below the threshold a vanishing community dissolved, not merged.
	containment := func(i int) float64 {
		return float64(bestOv[i]) / float64(len(t.prev[i].nodes))
	}

	// Identity assignment: claimants per cur community are the prev
	// communities whose best (Jaccard) match is j; the most similar
	// claimant carries its identity forward. A claimant's similarity to j
	// is its bestNewSim.
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
			if bestNewSim[i] > bestNewSim[winner] {
				winner = i
			}
		}
		c.id = t.prev[winner].id
		survivedAs[winner] = j
		selfSim[j] = bestNewSim[winner]
		simSum += bestNewSim[winner]
		simCount++
	}

	// Merge/death classification for prev communities whose identity
	// ended. The paper defines merging by node contribution: a community
	// merged into the cur community that received most of its nodes.
	// majority[j] lists prev communities contributing a majority to j
	// (the union that "became" j) — used for sizes and the strongest-tie
	// check of Fig 6c.
	majority := make([][]int, len(cur))
	for i := range t.prev {
		if j := bestDest[i]; j >= 0 && containment(i) > t.mergeContainment() {
			majority[j] = append(majority[j], i)
		}
	}
	for i, p := range t.prev {
		if survivedAs[i] >= 0 {
			continue
		}
		j := bestDest[i]
		if j < 0 || containment(i) <= t.mergeContainment() {
			// Dissolved: members scattered. Similarity records the best
			// containment for diagnostics.
			c := 0.0
			if j >= 0 {
				c = containment(i)
			}
			t.events = append(t.events, Event{Day: day, Type: Death, ID: p.id, Similarity: c})
			if h := t.hist[p.id]; h != nil {
				h.Death = day
			}
			continue
		}
		// Merged into cur[j]. The union it merged with is every other
		// majority contributor to j plus j's identity carrier.
		tieComm := t.strongestTieOf(i)
		inUnion := tieComm != 0 && tieComm == cur[j].id
		sizeB := 0
		for _, k := range majority[j] {
			inUnion = inUnion || (tieComm != 0 && t.prev[k].id == tieComm)
			if k != i && len(t.prev[k].nodes) > sizeB {
				sizeB = len(t.prev[k].nodes)
			}
		}
		if sizeB == 0 {
			sizeB = len(cur[j].nodes)
		}
		t.events = append(t.events, Event{
			Day:              day,
			Type:             Merge,
			ID:               p.id,
			Other:            cur[j].id,
			Similarity:       jaccard(bestOv[i], len(p.nodes), len(cur[j].nodes)),
			SizeA:            len(p.nodes),
			SizeB:            sizeB,
			StrongestTie:     inUnion,
			StrongestTieWith: tieComm,
		})
		if h := t.hist[p.id]; h != nil {
			h.Death = day
			h.MergedInto = cur[j].id
		}
	}

	// Split detection: prev community that is best-old for >= 2 cur comms.
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
		// Two largest children (Fig 6a uses the largest two).
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

	return selfSim, simSum, simCount
}

func (t *Tracker) newID(day int32) int64 {
	t.nextID++
	id := t.nextID
	t.hist[id] = &History{ID: id, Birth: day, Death: -1}
	return id
}

// strongestTieOf returns the community with the most edges to prev
// community i in the previous snapshot (the smallest id among equals), or
// 0 when it had no inter-community edges.
func (t *Tracker) strongestTieOf(i int) int64 {
	var bestComm int64
	var best int64 = -1
	for _, tc := range t.prevTies[t.prevTieOff[i]:t.prevTieOff[i+1]] {
		if tc.n > best {
			best, bestComm = tc.n, tc.id
		}
	}
	return bestComm
}

// recordFeatures appends this snapshot's Features for every live community
// and records the snapshot's inter-community edge counts for the next
// match. Both come from one pass over each community's adjacency: an edge
// to the same slot is intra, one to another slot counts toward that tie.
// t.slot must map every cur member to its index.
func (t *Tracker) recordFeatures(day int32, g graph.View, cur []*community, selfSim []float64) {
	t.prevTieOff = make([]int, len(cur)+1)
	t.prevTies = nil
	cnt := make([]int64, len(cur))
	var touched []int32
	var nbrs []graph.NodeID
	for j, c := range cur {
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
			nbrs = g.AppendNeighbors(nbrs[:0], u)
			for _, v := range nbrs {
				switch k := t.slot[v]; {
				case k == int32(j):
					intra++
				case k >= 0:
					if cnt[k] == 0 {
						touched = append(touched, k)
					}
					cnt[k]++
				}
			}
		}
		row := len(t.prevTies)
		for _, k := range touched {
			t.prevTies = append(t.prevTies, tie{cur[k].id, cnt[k]})
			cnt[k] = 0
		}
		touched = touched[:0]
		slices.SortFunc(t.prevTies[row:], func(a, b tie) int { return cmp.Compare(a.id, b.id) })
		t.prevTieOff[j+1] = len(t.prevTies)

		inRatio := 0.0
		if degSum > 0 {
			inRatio = float64(intra) / float64(degSum) // intra counted twice / degsum
		}
		h.Features = append(h.Features, Features{Day: day, Size: len(c.nodes), InRatio: inRatio, SelfSim: selfSim[j]})
	}
}

// Events returns all lifecycle events recorded so far.
func (t *Tracker) Events() []Event { return t.events }

// Histories returns the per-identity lifetime records.
func (t *Tracker) Histories() map[int64]*History { return t.hist }

// LastDay returns the most recent snapshot day processed, -1 if none.
func (t *Tracker) LastDay() int32 { return t.lastDay }

// mergeContainment returns the configured containment threshold.
func (t *Tracker) mergeContainment() float64 { return t.MergeContainment }
