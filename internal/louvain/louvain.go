// Package louvain implements the Louvain community-detection algorithm
// (Blondel et al. 2008) with the two features the paper relies on in §4.1:
//
//   - a modularity-gain threshold δ that stops optimization once the
//     improvement of a sweep falls below it — the knob whose sensitivity the
//     paper analyzes in Fig 4; and
//   - an incremental mode, where the partition found on the previous
//     snapshot seeds the initial community assignment for the next one,
//     giving communities an explicit identity tie across snapshots.
//
// The implementation is the standard two-phase scheme: local moving of
// nodes until the modularity gain of a sweep drops below δ, then
// aggregation of communities into a weighted super-graph, repeated until no
// level improves modularity by more than δ.
package louvain

import (
	"errors"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Options configures a Louvain run.
type Options struct {
	// Delta is the modularity-gain threshold δ: a local-moving sweep (and
	// a whole level) stops when it improves modularity by less than this.
	Delta float64
	// MaxLevels bounds the number of aggregation levels (0 = default 32).
	MaxLevels int
	// Seed drives the node-visiting order shuffle.
	Seed int64
	// Init optionally assigns each node an initial community label
	// (incremental mode). nil means all singletons. Labels need not be
	// dense: they are renumbered by first appearance, and every distinct
	// value is one starting community. That includes -1: all nodes
	// labeled -1 start together in one shared community, not as
	// singletons.
	Init []int32
}

// Result is the output of a Louvain run.
type Result struct {
	// Community[u] is the final community label of node u. Labels are
	// dense in [0, NumCommunities).
	Community []int32
	// Modularity of the final partition on the input graph.
	Modularity float64
	// Levels actually performed.
	Levels int
}

// NumCommunities returns the number of distinct final communities.
func (r *Result) NumCommunities() int {
	max := int32(-1)
	for _, c := range r.Community {
		if c > max {
			max = c
		}
	}
	return int(max + 1)
}

// Groups returns the member lists of each community, indexed by label.
func (r *Result) Groups() [][]graph.NodeID {
	out := make([][]graph.NodeID, r.NumCommunities())
	for u, c := range r.Community {
		out[c] = append(out[c], graph.NodeID(u))
	}
	return out
}

// wgraph is a weighted multigraph in CSR form: off/tgt index each node's
// neighbors, excluding self loops, which live in self. It has two weight
// forms:
//
//   - Level 0 (the input graph): all weights exactly 1 and no self loops,
//     so wt, self and deg stay nil and a node's degree is its row length.
//     A million-node snapshot costs two flat arrays, aliased straight from
//     a Frozen snapshot when there is one.
//   - Aggregation levels (one super-node per community of the level
//     below): wt carries each arc's weight, self the intra-community
//     weight, deg the weighted degree including 2*self.
//
// Every weight at every level is a multiple of 0.5 far below 2^52, which
// float64 represents exactly, so every sum of weights — community degree
// mass, intra-community weight, link weight to a community — is exact and
// independent of accumulation order. That is what lets the optimizer keep
// those sums as running columns (see localMove) and still produce the
// same move decisions and modularity bits as a from-scratch recompute.
type wgraph struct {
	n    int
	off  []int64
	tgt  []int32
	wt   []float64 // arc weights; nil = all 1
	self []float64 // self-loop weight per node; nil = all 0
	deg  []float64 // weighted degree incl. 2*self; nil = row length

	total float64 // 2m: sum of all degrees
}

// degree returns u's weighted degree.
func (w *wgraph) degree(u int32) float64 {
	if w.deg == nil {
		return float64(w.off[u+1] - w.off[u])
	}
	return w.deg[u]
}

// selfWeight returns u's self-loop weight (always 0 at level 0).
func (w *wgraph) selfWeight(u int32) float64 {
	if w.self == nil {
		return 0
	}
	return w.self[u]
}

func newWGraphFromGraph(g graph.View) *wgraph {
	// A Frozen snapshot already *is* the level-0 CSR — same offsets/targets
	// layout, same insertion order, simple graph with unit weights and no
	// self loops — so alias its columns instead of copying them. The
	// wgraph never mutates off/tgt (aggregation levels derive fresh
	// super-graphs), and the result is bit-identical by construction: the
	// arrays are the same ones a copy would have reproduced. This removes
	// the single largest per-snapshot allocation of the δ-sweep.
	if f, ok := g.(*graph.Frozen); ok {
		off, tgt := f.CSR()
		return &wgraph{n: f.NumNodes(), off: off, tgt: tgt, total: float64(off[len(off)-1])}
	}
	n := g.NumNodes()
	w := &wgraph{n: n, off: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		w.off[u+1] = w.off[u] + int64(g.Degree(graph.NodeID(u)))
	}
	tgt := make([]graph.NodeID, 0, w.off[n])
	for u := 0; u < n; u++ {
		tgt = g.AppendNeighbors(tgt, graph.NodeID(u))
	}
	w.tgt = tgt
	w.total = float64(w.off[n])
	return w
}

// columns returns, for an assignment with labels in [0, nc), each
// community's intra weight counted from both sides (in) and its degree
// mass (tot). Both are exact sums (see wgraph).
func (w *wgraph) columns(comm []int32, nc int) (in, tot []float64) {
	in = make([]float64, nc)
	tot = make([]float64, nc)
	for u := 0; u < w.n; u++ {
		c := comm[u]
		tot[c] += w.degree(int32(u))
		in[c] += 2 * w.selfWeight(int32(u))
		row := w.tgt[w.off[u]:w.off[u+1]]
		if w.wt == nil {
			for _, v := range row {
				if comm[v] == c {
					in[c]++
				}
			}
			continue
		}
		wts := w.wt[w.off[u]:w.off[u+1]]
		for i, v := range row {
			if comm[v] == c {
				in[c] += wts[i]
			}
		}
	}
	return in, tot
}

// modTerm is community c's modularity contribution from its exact in and
// tot sums. Every modularity in this package is a sum of modTerm values
// in ascending label order, so equal sums give equal bits.
func modTerm(in, tot, m2 float64) float64 {
	return in/m2 - (tot/m2)*(tot/m2)
}

// modularity computes Q for the given community assignment over w from
// scratch, summing per-community terms in ascending label order.
func (w *wgraph) modularity(comm []int32) float64 {
	if w.total == 0 {
		return 0
	}
	in, tot := w.columns(comm, int(maxLabel(comm)+1))
	return sumQ(in, tot, w.total)
}

// sumQ sums modTerm over labels in ascending order. Empty labels
// contribute exactly +0, so trailing or interleaved empty labels leave
// the bits of the sum unchanged.
func sumQ(in, tot []float64, m2 float64) float64 {
	var q float64
	for c := range tot {
		q += modTerm(in[c], tot[c], m2)
	}
	return q
}

// ErrInitLength is returned when Options.Init has the wrong length.
var ErrInitLength = errors.New("louvain: init assignment length mismatch")

// Prepared is a Louvain-ready weighted view of a graph: the level-0
// weighted adjacency built once by Prepare and read, never written, by
// RunPrepared. It is safe to share between any number of concurrent
// RunPrepared calls, so the δ-sweep builds one Prepared per frozen
// snapshot and every per-δ worker reuses it, instead of K workers
// re-deriving identical weighted graphs.
type Prepared struct {
	w *wgraph
}

// Prepare builds the shared weighted view of g. The result is immutable
// and unaffected by later growth of g's underlying graph.
func Prepare(g graph.View) *Prepared {
	return &Prepared{w: newWGraphFromGraph(g)}
}

// NumNodes returns the node count at Prepare time.
func (p *Prepared) NumNodes() int { return p.w.n }

// Run performs Louvain community detection on g. It only reads the graph,
// so g may be the live replay graph or an immutable graph.Frozen snapshot
// shared with other concurrent runs (the δ-sweep's fan-out).
func Run(g graph.View, opt Options) (*Result, error) {
	return RunPrepared(Prepare(g), opt)
}

// RunPrepared is Run over a pre-built weighted view, bit-identical to Run
// on the graph Prepare saw: the level-0 weighted graph is a pure function
// of the adjacency, optimization never mutates it (aggregation levels
// derive fresh super-graphs), and level-0 weights are unit so summation
// order cannot perturb the floats.
func RunPrepared(p *Prepared, opt Options) (*Result, error) {
	n := p.w.n
	if opt.Init != nil && len(opt.Init) != n {
		return nil, ErrInitLength
	}
	if opt.Delta <= 0 {
		opt.Delta = 1e-6
	}
	maxLevels := opt.MaxLevels
	if maxLevels <= 0 {
		maxLevels = 32
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// final[u] tracks each original node's community through the levels.
	final := make([]int32, n)
	w := p.w

	// Level-0 initial assignment: Init labels densified, or singletons.
	var init []int32
	if opt.Init != nil {
		init = densify(opt.Init)
	}

	// The level loop embodies the paper's δ semantics: aggregation
	// continues only while a level improves modularity by at least δ.
	// A large δ therefore terminates early with finer communities; a
	// small δ aggregates toward the resolution limit.
	levels := 0
	prevQ := 0.0
	for level := 0; level < maxLevels; level++ {
		comm, in, tot := localMove(w, init, opt.Delta, rng)
		init = nil // only the first level is seeded
		dense := densify(comm)
		q := firstSeenQ(dense, comm, in, tot, w.total)
		if level > 0 && q-prevQ < opt.Delta {
			break // this level is not worth δ; discard it
		}
		levels++
		prevQ = q

		// Fold this level's assignment into the original-node mapping.
		if level == 0 {
			copy(final, dense)
		} else {
			for u := range final {
				final[u] = dense[final[u]]
			}
		}

		nc := maxLabel(dense) + 1
		if int(nc) == w.n {
			break // nothing was merged; converged
		}
		w = w.aggregate(dense, int(nc))
	}

	// final is already dense in first-appearance order: each level numbers
	// its communities by their first super-node, and super-nodes are in
	// first-appearance order of their smallest original node. So the last
	// accepted level's q sums the same exact per-community terms (the
	// aggregation preserves in, tot and the total exactly) in the same
	// label order as p.w.modularity(final) would, without its O(E) pass.
	return &Result{Community: final, Modularity: prevQ, Levels: levels}, nil
}

// firstSeenQ is the modularity of the assignment dense, whose labels are
// numbered by first appearance, read off localMove's exact per-community
// sums kept under other labels: label d's in and tot sit at index src[u]
// for any u with dense[u] == d. Walking the nodes and emitting each
// label's term on its first appearance sums the terms in ascending
// dense-label order, so the result has the same bits as w.modularity(dense).
func firstSeenQ(dense, src []int32, in, tot []float64, m2 float64) float64 {
	if m2 == 0 {
		return 0
	}
	var q float64
	next := int32(0)
	for u, d := range dense {
		if d == next {
			c := src[u]
			q += modTerm(in[c], tot[c], m2)
			next++
		}
	}
	return q
}

// Modularity computes the modularity of an arbitrary assignment on g,
// exported for δ-sensitivity analyses (Fig 4a).
func Modularity(g graph.View, comm []int32) float64 {
	if len(comm) != g.NumNodes() {
		return 0
	}
	return newWGraphFromGraph(g).modularity(comm)
}

// localMove runs the phase-1 sweeps on w starting from init (nil =
// singletons; otherwise labels already densified into [0, n)) until a
// sweep gains less than delta. It returns the assignment together with
// the per-label intra weight (in, counted from both sides) and degree
// mass (tot) columns, indexed by label, that it kept current move by move.
//
// Labels always lie in [0, n), so every per-label aggregate is a flat
// column. The sweep modularity is read off in and tot in O(labels)
// instead of an O(E) recompute; because both columns hold exact sums
// (see wgraph) and the terms are added in ascending label order, it has
// the same bits as w.modularity(comm).
func localMove(w *wgraph, init []int32, delta float64, rng *rand.Rand) (comm []int32, in, tot []float64) {
	comm = make([]int32, w.n)
	if init == nil {
		for i := range comm {
			comm[i] = int32(i)
		}
	} else {
		copy(comm, init)
	}

	order := rng.Perm(w.n)
	m2 := w.total
	if m2 == 0 {
		return comm, nil, nil
	}
	if init == nil {
		// Singletons: a node's community holds only its own self loop.
		in, tot = make([]float64, w.n), make([]float64, w.n)
		for u := range tot {
			in[u], tot[u] = 2*w.selfWeight(int32(u)), w.degree(int32(u))
		}
	} else {
		in, tot = w.columns(comm, w.n)
	}

	// links[c] is u's link weight to community c and touched lists the
	// labels it set, in first-touch order; both are wiped after each node.
	// Weights are positive, so links[c] == 0 means "not yet touched".
	links := make([]float64, w.n)
	var touched []int32

	prevQ := sumQ(in, tot, m2)
	for sweep := 0; sweep < 128; sweep++ {
		moved := false
		for _, ui := range order {
			u := int32(ui)
			cu := comm[u]
			lo, hi := w.off[u], w.off[u+1]
			if w.wt == nil {
				for _, v := range w.tgt[lo:hi] {
					c := comm[v]
					if links[c] == 0 {
						touched = append(touched, c)
					}
					links[c]++ // unit weight
				}
			} else {
				wts := w.wt[lo:hi]
				for i, v := range w.tgt[lo:hi] {
					c := comm[v]
					if links[c] == 0 {
						touched = append(touched, c)
					}
					links[c] += wts[i]
				}
			}
			// Candidates are visited in sorted label order so that
			// tie-breaking is deterministic.
			slices.Sort(touched)
			// Remove u from its community.
			du := w.degree(u)
			tot[cu] -= du
			// Gain of joining community c (up to a constant factor):
			// k_{u,in}(c) - tot_c * k_u / m2.
			best := cu
			bestGain := links[cu] - tot[cu]*du/m2
			for _, c := range touched {
				if c == cu {
					continue
				}
				gain := links[c] - tot[c]*du/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			if best != cu {
				su := 2 * w.selfWeight(u)
				in[cu] -= 2*links[cu] + su
				in[best] += 2*links[best] + su
				comm[u] = best
				moved = true
			}
			tot[best] += du
			for _, c := range touched {
				links[c] = 0
			}
			touched = touched[:0]
		}
		if !moved {
			break
		}
		q := sumQ(in, tot, m2)
		if q-prevQ < delta {
			break
		}
		prevQ = q
	}
	return comm, in, tot
}

// aggregate builds the super-graph where each community becomes one node.
// Members are bucketed by community, then each community's arcs are
// summed into a flat per-neighbor column and emitted as one CSR row.
func (w *wgraph) aggregate(comm []int32, nc int) *wgraph {
	start := make([]int32, nc+1)
	for _, c := range comm {
		start[c+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	members := make([]int32, w.n)
	fill := slices.Clone(start[:nc])
	for u, c := range comm {
		members[fill[c]] = int32(u)
		fill[c]++
	}

	out := &wgraph{
		n:    nc,
		off:  make([]int64, nc+1),
		self: make([]float64, nc),
		deg:  make([]float64, nc),
	}
	acc := make([]float64, nc)
	var touched []int32
	for cu := int32(0); int(cu) < nc; cu++ {
		self := 0.0
		for _, u := range members[start[cu]:start[cu+1]] {
			self += w.selfWeight(u)
			lo, hi := w.off[u], w.off[u+1]
			for i, v := range w.tgt[lo:hi] {
				wt := 1.0
				if w.wt != nil {
					wt = w.wt[lo+int64(i)]
				}
				cv := comm[v]
				if cv == cu {
					self += wt / 2 // seen from both sides
					continue
				}
				if acc[cv] == 0 {
					touched = append(touched, cv)
				}
				acc[cv] += wt
			}
		}
		d := 2 * self
		for _, cv := range touched {
			out.tgt = append(out.tgt, cv)
			out.wt = append(out.wt, acc[cv])
			d += acc[cv]
			acc[cv] = 0
		}
		touched = touched[:0]
		out.off[cu+1] = int64(len(out.tgt))
		out.self[cu] = self
		out.deg[cu] = d
		out.total += d
	}
	return out
}

// densify renumbers labels to a dense [0, k) range in order of first
// appearance. Labels in [0, len(labels)) — every label the optimizer
// produces — remap through a flat column; only Init can carry labels
// outside that range (-1, or sparse large ids), and those go through a map.
func densify(labels []int32) []int32 {
	n := len(labels)
	out := make([]int32, n)
	remap := make([]int32, n) // label -> dense+1, 0 = unseen
	var wide map[int32]int32
	var next int32
	for i, l := range labels {
		if uint32(l) < uint32(n) {
			if remap[l] == 0 {
				next++
				remap[l] = next
			}
			out[i] = remap[l] - 1
			continue
		}
		d, ok := wide[l]
		if !ok {
			if wide == nil {
				wide = make(map[int32]int32)
			}
			d = next
			wide[l] = d
			next++
		}
		out[i] = d
	}
	return out
}

func maxLabel(labels []int32) int32 {
	m := int32(-1)
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}
