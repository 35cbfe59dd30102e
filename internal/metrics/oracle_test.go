package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// pickSources draws the path-length sources exactly as PathSampler.Sample
// does: all of the largest component when k covers it, else a uniform
// sample of k of its members.
func pickSources(g *graph.Graph, k int, rng *rand.Rand) []graph.NodeID {
	comp := g.LargestComponent()
	if len(comp) < 2 {
		return nil
	}
	if k >= len(comp) {
		return comp
	}
	var sources []graph.NodeID
	for _, i := range stats.SampleWithoutReplacement(len(comp), k, rng) {
		sources = append(sources, comp[i])
	}
	return sources
}

// bfsReference is the per-source estimator the multi-source sweep
// replaced: one full BFS per source, every positive distance added into a
// float64.
func bfsReference(g *graph.Graph, sources []graph.NodeID) (float64, int64) {
	var total float64
	var count int64
	for _, s := range sources {
		for v, d := range g.BFS(s) {
			if d > 0 && graph.NodeID(v) != s {
				total += float64(d)
				count++
			}
		}
	}
	return total, count
}

// oracleGraph builds a random graph under shuffled node ids: a giant
// component of random edges over a spanning tree, a long path hung off it
// (so a batch runs well past 64 levels), a few small components, and
// isolated nodes.
func oracleGraph(rng *rand.Rand, giant, tail int) *graph.Graph {
	n := giant + tail + 30 + rng.Intn(20)
	id := rng.Perm(n)
	g := graph.New(n)
	g.EnsureNode(graph.NodeID(n - 1))
	edge := func(a, b int) { g.AddEdge(graph.NodeID(id[a]), graph.NodeID(id[b])) }
	for i := 1; i < giant; i++ {
		edge(rng.Intn(i), i)
	}
	for i := 0; i < giant; i++ {
		edge(rng.Intn(giant), rng.Intn(giant))
	}
	for i := giant; i < giant+tail; i++ {
		edge(i-1, i)
	}
	for c := giant + tail; c+3 <= giant+tail+30; c += 3 + rng.Intn(3) {
		edge(c, c+1)
		edge(c+1, c+2)
	}
	return g
}

// TestPathSamplerMatchesPerSourceBFS holds the 64-wide multi-source sweep
// to the per-source BFS estimator bit for bit: the distance total, the
// pair count and the estimate, on randomized disconnected graphs, for
// source counts on both sides of each 64-source batch boundary and
// beyond the largest component, at several worker counts. With more
// batches than workers a worker runs several batches on the same
// columns, so a column left dirty by one batch would show in the next.
func TestPathSamplerMatchesPerSourceBFS(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		giant := 40 + rng.Intn(260) // some giants are smaller than k
		g := oracleGraph(rng, giant, rng.Intn(3)*40)
		compSize := len(g.LargestComponent())
		for _, k := range []int{1, 63, 64, 65, 100, 129, compSize, compSize + 7} {
			for _, workers := range []int{1, 2, 3, 8} {
				seed := int64(1000*trial + k)
				sources := pickSources(g, k, rand.New(rand.NewSource(seed)))
				wantTotal, wantCount := bfsReference(g, sources)

				p := PathSampler{Workers: workers}
				total, count := p.sweep(g, sources)
				if math.Float64bits(float64(total)) != math.Float64bits(wantTotal) || count != wantCount {
					t.Fatalf("trial %d k=%d workers=%d: sweep (%d, %d), want (%v, %d)",
						trial, k, workers, total, count, wantTotal, wantCount)
				}

				got, err := p.Sample(g, k, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("trial %d k=%d workers=%d: %v", trial, k, workers, err)
				}
				want := wantTotal / float64(wantCount)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d k=%d workers=%d: estimate %v, want %v", trial, k, workers, got, want)
				}
			}
		}
	}
}
