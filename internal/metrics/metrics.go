// Package metrics computes the first-order graph metrics the paper tracks
// over daily snapshots in §2 (Fig 1): average degree, average clustering
// coefficient, degree assortativity, and sampled average path length.
//
// The path-length and clustering computations support node sampling, which
// is the paper's own tractability device ("we follow the standard practice
// of sampling nodes to make path length computation tractable").
package metrics

import (
	"errors"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/stats"
)

// AverageDegree returns 2E/N, the mean node degree, or 0 for an empty graph.
func AverageDegree(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// LocalClustering returns the clustering coefficient of node u: the fraction
// of pairs of u's neighbors that are themselves connected. Nodes with degree
// < 2 have coefficient 0, matching the convention the paper inherits.
func LocalClustering(g *graph.Graph, u graph.NodeID) float64 {
	d := g.Degree(u)
	if d < 2 {
		return 0
	}
	ns := g.AppendNeighbors(make([]graph.NodeID, 0, d), u)
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(ns[i], ns[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AverageClustering returns the mean local clustering coefficient over all
// nodes (exact computation).
func AverageClustering(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var sum float64
	for u := 0; u < n; u++ {
		sum += LocalClustering(g, graph.NodeID(u))
	}
	return sum / float64(n)
}

// SampledClustering estimates the average clustering coefficient from a
// uniform sample of k nodes. With k >= NumNodes it is exact.
func SampledClustering(g *graph.Graph, k int, rng *rand.Rand) float64 {
	var c ClusteringSampler
	return c.Sample(g, k, rng)
}

// ClusteringSampler is SampledClustering with a reusable neighbor-marks
// scratch array. Marking u's neighborhood turns each local coefficient into
// one scan over the neighbors' adjacency lists instead of a quadratic
// HasEdge pair-scan — the dominant cost of the Fig 1 snapshot series — while
// counting exactly the same linked pairs.
type ClusteringSampler struct {
	marks []bool
	ns    []graph.NodeID // scratch: u's materialized neighbor list
}

func (c *ClusteringSampler) local(g *graph.Graph, u graph.NodeID) float64 {
	d := g.Degree(u)
	if d < 2 {
		return 0
	}
	c.ns = g.AppendNeighbors(c.ns[:0], u)
	ns := c.ns
	if n := g.NumNodes(); cap(c.marks) < n {
		c.marks = make([]bool, n)
	} else {
		c.marks = c.marks[:n]
	}
	for _, v := range ns {
		c.marks[v] = true
	}
	// Every linked neighbor pair {v, w} is seen twice, once from each side.
	links := 0
	for _, v := range ns {
		for it := g.Chunks(v); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, w := range s {
				if c.marks[w] {
					links++
				}
			}
		}
	}
	for _, v := range ns {
		c.marks[v] = false
	}
	links /= 2
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// Sample estimates the average clustering coefficient exactly as
// SampledClustering does.
func (c *ClusteringSampler) Sample(g *graph.Graph, k int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if k >= n {
		var sum float64
		for u := 0; u < n; u++ {
			sum += c.local(g, graph.NodeID(u))
		}
		return sum / float64(n)
	}
	ids := stats.SampleWithoutReplacement(n, k, rng)
	var sum float64
	for _, u := range ids {
		sum += c.local(g, graph.NodeID(u))
	}
	return sum / float64(len(ids))
}

// Assortativity returns the degree assortativity coefficient: the Pearson
// correlation of the degrees at either end of every edge (both orientations
// counted, the standard Newman formulation). It returns 0 for graphs with
// no edges or uniform degrees. The computation streams over edges without
// materializing the degree pairs, so it is allocation-free even on
// million-edge snapshots.
func Assortativity(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	// With both orientations counted, Σx = Σy and Σx² = Σy², so only one
	// side's moments are needed.
	var n, sx, sxx, sxy float64
	g.ForEachEdge(func(u, v graph.NodeID) {
		du, dv := float64(g.Degree(u)), float64(g.Degree(v))
		n += 2
		sx += du + dv
		sxx += du*du + dv*dv
		sxy += 2 * du * dv
	})
	varX := sxx - sx*sx/n
	if varX <= 0 {
		return 0
	}
	cov := sxy - sx*sx/n
	return cov / varX
}

// ErrNoSample is returned when a sampled estimate has nothing to average.
var ErrNoSample = errors.New("metrics: no valid samples")

// SampledPathLength estimates the average shortest-path length by running
// BFS from k sources sampled uniformly from the graph's largest connected
// component and averaging distances to every reachable node, the procedure
// the paper uses with k=1000 on each snapshot (Fig 1d).
func SampledPathLength(g *graph.Graph, k int, rng *rand.Rand) (float64, error) {
	var ps PathSampler
	return ps.Sample(g, k, rng)
}

// PathSampler is SampledPathLength with a worker fan-out, for callers
// (the streaming metrics stage) that measure many snapshots.
//
// The estimate needs only the sum of source-to-node distances and the
// number of reachable pairs, never one source's distance column, so the
// sources share their traversals. They are cut into batches of up to 64,
// and each batch runs as one multi-source BFS (Then et al., VLDB 2015):
// bit i of a node's 64-bit word stands for source i of the batch, and
// each level scans a frontier node's adjacency once for every source that
// reached it at that distance. Distances are summed as integers; the
// result is the same float64 the per-source sum gives, because every
// partial sum is an integer far below 2^53 (see DESIGN §11).
//
// With Workers > 1 the batches fan out across that many goroutines, each
// with private columns. Source selection happens before the fan-out (the
// rng draw sequence is unchanged) and integer totals do not depend on
// scheduling, so the estimate is bit-identical at any width. The columns
// live for one Sample and serve all of its batches; they are not kept
// between snapshots, which a growing graph would outgrow anyway.
type PathSampler struct {
	// Workers is the fan-out width for the batch sweep; <= 1 runs
	// sequentially.
	Workers int
}

// bfsColumns is one worker's multi-source BFS state: one word per node
// in each column, bit i standing for source i of the batch. seen holds
// the sources that have reached the node, visit those that reached it at
// the current level (the frontier), next those reaching it at the coming
// one. All three are zero between batches.
type bfsColumns struct {
	seen, visit, next []uint64
}

// Sample estimates the average shortest-path length exactly as
// SampledPathLength does.
func (p *PathSampler) Sample(g *graph.Graph, k int, rng *rand.Rand) (float64, error) {
	comp := g.LargestComponent()
	if len(comp) < 2 {
		return 0, ErrNoSample
	}
	var sources []graph.NodeID
	if k >= len(comp) {
		sources = comp
	} else {
		for _, i := range stats.SampleWithoutReplacement(len(comp), k, rng) {
			sources = append(sources, comp[i])
		}
	}
	total, count := p.sweep(g, sources)
	if count == 0 {
		return 0, ErrNoSample
	}
	return float64(total) / float64(count), nil
}

// sweep runs one multi-source BFS per batch of 64 sources and returns the
// distance total and reachable-pair count, with the batches fanned out
// per Workers.
func (p *PathSampler) sweep(g *graph.Graph, sources []graph.NodeID) (total, count int64) {
	n := g.NumNodes()
	batches := (len(sources) + 63) / 64
	workers := min(max(p.Workers, 1), batches)
	sums := make([][2]int64, batches)
	run := func(w int) {
		c := bfsColumns{seen: make([]uint64, n), visit: make([]uint64, n), next: make([]uint64, n)}
		for b := w; b < batches; b += workers {
			sums[b][0], sums[b][1] = c.run(g, sources[b*64:min(b*64+64, len(sources))])
		}
	}
	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	}
	for _, s := range sums {
		total += s[0]
		count += s[1]
	}
	return total, count
}

// run is one multi-source BFS from up to 64 sources. Level by level, every
// frontier node ORs its visit word into its neighbours' next words; the
// bits of next not yet seen are the (source, node) pairs at that level's
// distance. It stops at the first level that adds no pair and returns the
// sum of the distances and the pair count, leaving every column zero.
//
// Both passes of a level sweep all n words in node order; only the
// adjacency scan is frontier-sized. On small-world snapshots (a dozen
// levels) the sweeps cost a few percent of the scan. On a graph whose
// eccentricities run into the hundreds they would outweigh it, and a
// per-source BFS would be cheaper.
func (c *bfsColumns) run(g *graph.Graph, sources []graph.NodeID) (total, count int64) {
	seen, visit, next := c.seen, c.visit, c.next
	for i, s := range sources {
		seen[s] |= 1 << i
		visit[s] |= 1 << i
	}
	for level := int64(1); ; level++ {
		for u, x := range visit {
			if x == 0 {
				continue
			}
			visit[u] = 0
			for it := g.Chunks(graph.NodeID(u)); ; {
				s := it.Next()
				if s == nil {
					break
				}
				for _, v := range s {
					next[v] |= x
				}
			}
		}
		var added int64
		for v, x := range next {
			if x == 0 {
				continue
			}
			next[v] = 0
			x &^= seen[v]
			seen[v] |= x
			visit[v] = x
			added += int64(bits.OnesCount64(x))
		}
		if added == 0 {
			break
		}
		count += added
		total += level * added
	}
	clear(seen)
	return total, count
}

// DegreeHistogram returns counts of nodes by degree.
func DegreeHistogram(g *graph.Graph) *stats.IntCounts {
	var c stats.IntCounts
	for u := 0; u < g.NumNodes(); u++ {
		c.Add(g.Degree(graph.NodeID(u)))
	}
	return &c
}

// Snapshot bundles the Fig 1 metrics measured on one daily snapshot.
type Snapshot struct {
	Day        int32
	Nodes      int64
	Edges      int64
	AvgDegree  float64
	PathLength float64 // NaN-free: 0 when not measured that day
	Clustering float64
	Assort     float64
}
