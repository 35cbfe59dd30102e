package louvain

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// refRun and its helpers are a map-based implementation of Louvain —
// per-node label maps in the local-move phase, neighbor->weight maps on
// aggregated levels, a map-backed densify and an O(E) modularity
// recompute after every sweep — kept as an independent reference. The
// kernels in louvain.go must reproduce it bit for bit: same assignment,
// same level count, same modularity float bits.

// refWGraph is the map-form weighted graph: level 0 is the unit-weight
// CSR, aggregated levels are neighbor->weight maps.
type refWGraph struct {
	n     int
	off   []int64
	tgt   []int32
	adj   []map[int32]float64
	self  []float64
	deg   []float64
	total float64
}

func refFromGraph(g graph.View) *refWGraph {
	n := g.NumNodes()
	w := &refWGraph{n: n, off: make([]int64, n+1)}
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

func (w *refWGraph) degree(u int32) float64 {
	if w.off != nil {
		return float64(w.off[u+1] - w.off[u])
	}
	return w.deg[u]
}

func (w *refWGraph) selfWeight(u int32) float64 {
	if w.off != nil {
		return 0
	}
	return w.self[u]
}

func (w *refWGraph) modularity(comm []int32) float64 {
	if w.total == 0 {
		return 0
	}
	nc := maxLabel(comm) + 1
	in := make([]float64, nc)
	tot := make([]float64, nc)
	for u := 0; u < w.n; u++ {
		c := comm[u]
		tot[c] += w.degree(int32(u))
		if w.off != nil {
			for i := w.off[u]; i < w.off[u+1]; i++ {
				if comm[w.tgt[i]] == c {
					in[c]++
				}
			}
			continue
		}
		in[c] += 2 * w.self[u]
		for v, wt := range w.adj[u] {
			if comm[v] == c {
				in[c] += wt
			}
		}
	}
	var q float64
	for c := int32(0); c < nc; c++ {
		q += in[c]/w.total - (tot[c]/w.total)*(tot[c]/w.total)
	}
	return q
}

func refRun(g graph.View, opt Options) (*Result, error) {
	base := refFromGraph(g)
	n := base.n
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
	final := make([]int32, n)
	w := base
	var init []int32
	if opt.Init != nil {
		init = refDensify(opt.Init)
	}
	levels := 0
	prevQ := 0.0
	for level := 0; level < maxLevels; level++ {
		comm := refLocalMove(w, init, opt.Delta, rng)
		init = nil
		dense := refDensify(comm)
		q := w.modularity(dense)
		if level > 0 && q-prevQ < opt.Delta {
			break
		}
		levels++
		prevQ = q
		if level == 0 {
			copy(final, dense)
		} else {
			for u := range final {
				final[u] = dense[final[u]]
			}
		}
		nc := maxLabel(dense) + 1
		if int(nc) == w.n {
			break
		}
		w = w.aggregate(dense, int(nc))
	}
	res := &Result{Community: refDensify(final), Levels: levels}
	res.Modularity = base.modularity(res.Community)
	return res, nil
}

func refLocalMove(w *refWGraph, init []int32, delta float64, rng *rand.Rand) []int32 {
	comm := make([]int32, w.n)
	if init == nil {
		for i := range comm {
			comm[i] = int32(i)
		}
	} else {
		next := maxLabel(init) + 1
		for i, c := range init {
			if c < 0 {
				comm[i] = next
				next++
			} else {
				comm[i] = c
			}
		}
	}
	tot := make(map[int32]float64, w.n)
	for u := 0; u < w.n; u++ {
		tot[comm[u]] += w.degree(int32(u))
	}
	order := rng.Perm(w.n)
	m2 := w.total
	if m2 == 0 {
		return comm
	}
	links := make(map[int32]float64, 64)
	var keysBuf []int32
	prevQ := w.modularity(comm)
	for sweep := 0; sweep < 128; sweep++ {
		moved := false
		for _, ui := range order {
			u := int32(ui)
			cu := comm[u]
			keys := keysBuf[:0]
			if w.off != nil {
				for i := w.off[u]; i < w.off[u+1]; i++ {
					c := comm[w.tgt[i]]
					if _, seen := links[c]; !seen {
						keys = append(keys, c)
					}
					links[c]++
				}
			} else {
				for v, wt := range w.adj[u] {
					c := comm[v]
					if _, seen := links[c]; !seen {
						keys = append(keys, c)
					}
					links[c] += wt
				}
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			du := w.degree(u)
			tot[cu] -= du
			best := cu
			bestGain := links[cu] - tot[cu]*du/m2
			for _, c := range keys {
				if c == cu {
					continue
				}
				gain := links[c] - tot[c]*du/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			for _, c := range keys {
				delete(links, c)
			}
			keysBuf = keys
			comm[u] = best
			tot[best] += du
			if best != cu {
				moved = true
			}
		}
		if !moved {
			break
		}
		q := w.modularity(comm)
		if q-prevQ < delta {
			break
		}
		prevQ = q
	}
	return comm
}

func (w *refWGraph) aggregate(comm []int32, nc int) *refWGraph {
	out := &refWGraph{
		n:    nc,
		adj:  make([]map[int32]float64, nc),
		self: make([]float64, nc),
		deg:  make([]float64, nc),
	}
	for u := 0; u < w.n; u++ {
		cu := comm[u]
		out.self[cu] += w.selfWeight(int32(u))
		if w.off != nil {
			for i := w.off[u]; i < w.off[u+1]; i++ {
				cv := comm[w.tgt[i]]
				if cv == cu {
					out.self[cu] += 0.5
					continue
				}
				if out.adj[cu] == nil {
					out.adj[cu] = make(map[int32]float64)
				}
				out.adj[cu][cv]++
			}
			continue
		}
		for v, wt := range w.adj[u] {
			cv := comm[v]
			if cv == cu {
				out.self[cu] += wt / 2
				continue
			}
			if out.adj[cu] == nil {
				out.adj[cu] = make(map[int32]float64)
			}
			out.adj[cu][cv] += wt
		}
	}
	for u := 0; u < nc; u++ {
		d := 2 * out.self[u]
		for _, wt := range out.adj[u] {
			d += wt
		}
		out.deg[u] = d
		out.total += d
	}
	return out
}

func refDensify(labels []int32) []int32 {
	remap := make(map[int32]int32, 64)
	out := make([]int32, len(labels))
	var next int32
	for i, l := range labels {
		d, ok := remap[l]
		if !ok {
			d = next
			remap[l] = d
			next++
		}
		out[i] = d
	}
	return out
}

// randomInit draws an incremental seed the way the detector builds one —
// previous labels for old nodes, -1 for nodes that joined since — and
// mixes in sparse large labels, which only an Init can carry.
func randomInit(rng *rand.Rand, n int) []int32 {
	init := make([]int32, n)
	k := 1 + rng.Intn(n/4+1)
	for i := range init {
		switch r := rng.Float64(); {
		case r < 0.2:
			init[i] = -1
		case r < 0.3:
			init[i] = int32(1<<20 + rng.Intn(1<<30))
		default:
			init[i] = int32(rng.Intn(k))
		}
	}
	return init
}

// TestKernelsMatchMapOracle runs the production kernels and the map-based
// reference side by side on planted partitions of varying strength, with
// and without incremental seeds, across the δ values the paper's sweep
// spans, and requires identical communities, level counts and modularity
// bits. Multi-level runs are the point: aggregated levels exercise the
// weighted CSR and the exact-sum incremental modularity.
func TestKernelsMatchMapOracle(t *testing.T) {
	deltas := []float64{1e-6, 0.01, 0.1, 0.3}
	multiLevel, maxLevels := 0, 0
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c, s := 3+rng.Intn(10), 8+rng.Intn(30)
		pIn := 0.1 + 0.5*rng.Float64()
		pOut := 0.002 + 0.03*rng.Float64()
		g, _ := plantedPartition(c, s, pIn, pOut, int64(100+trial))
		prep := Prepare(g)
		for _, delta := range deltas {
			for _, seeded := range []bool{false, true} {
				opt := Options{Delta: delta, Seed: rng.Int63()}
				if seeded {
					opt.Init = randomInit(rng, g.NumNodes())
				}
				want, err := refRun(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunPrepared(prep, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Community, want.Community) || got.Levels != want.Levels ||
					math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
					t.Fatalf("trial %d δ=%v seeded=%v: got levels=%d Q=%v, oracle levels=%d Q=%v",
						trial, delta, seeded, got.Levels, got.Modularity, want.Levels, want.Modularity)
				}
				if want.Levels > 1 {
					multiLevel++
				}
				maxLevels = max(maxLevels, want.Levels)
			}
		}
	}
	t.Logf("%d of %d runs aggregated past level 0, up to %d levels", multiLevel, trials*len(deltas)*2, maxLevels)
	if multiLevel == 0 {
		t.Fatal("no trial aggregated past level 0; the oracle comparison never reached the weighted levels")
	}
}

// TestKernelsMatchMapOracleRandomGraphs repeats the comparison on sparse
// random graphs with isolated nodes, where ties between equal-gain
// communities are common and the sorted candidate order matters.
func TestKernelsMatchMapOracleRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := stats.NewRand(seed)
		n := 2 + rng.Intn(300)
		g := randomGraph(n, rng.Intn(3*n), rng)
		opt := Options{Delta: []float64{1e-6, 0.01, 0.1, 0.3}[seed%4], Seed: seed}
		if seed%2 == 1 {
			opt.Init = randomInit(rand.New(rand.NewSource(seed)), n)
		}
		want, _ := refRun(g, opt)
		got, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Community, want.Community) || got.Levels != want.Levels ||
			math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
			t.Fatalf("seed %d: got levels=%d Q=%v, oracle levels=%d Q=%v", seed, got.Levels, got.Modularity, want.Levels, want.Modularity)
		}
		// The result is read off the last level's columns; it must equal a
		// from-scratch evaluation, and the labels must already be dense.
		if !reflect.DeepEqual(densify(got.Community), got.Community) ||
			math.Float64bits(Modularity(g, got.Community)) != math.Float64bits(got.Modularity) {
			t.Fatalf("seed %d: result is not its own dense, from-scratch-evaluated partition", seed)
		}
	}
}

// TestDensifyMatchesMapOracle covers the flat remap and its fallback for
// labels outside [0, n): negative and sparse large Init labels.
func TestDensifyMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		labels := randomInit(rng, 1+rng.Intn(200))
		if got, want := densify(labels), refDensify(labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: densify = %v, want %v", seed, got, want)
		}
	}
}

// TestModularityMatchesMapOracle holds the exported full recompute to the
// reference on arbitrary (sparse, non-dense) assignments.
func TestModularityMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.NewRand(seed)
		n := 2 + rng.Intn(200)
		g := randomGraph(n, rng.Intn(4*n), rng)
		comm := make([]int32, n)
		k := 1 + rng.Intn(2*n)
		for i := range comm {
			comm[i] = int32(rng.Intn(k))
		}
		got, want := Modularity(g, comm), refFromGraph(g).modularity(comm)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: Q = %v, oracle %v", seed, got, want)
		}
	}
}
