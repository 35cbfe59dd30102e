package louvain

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// twoCliques builds two k-cliques joined by a single bridge edge.
func twoCliques(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(j))
			g.AddEdge(graph.NodeID(k+i), graph.NodeID(k+j))
		}
	}
	g.AddEdge(0, graph.NodeID(k))
	return g
}

// plantedPartition builds c communities of size s with dense intra and
// sparse inter edges.
func plantedPartition(c, s int, pIn, pOut float64, seed int64) (*graph.Graph, []int32) {
	rng := stats.NewRand(seed)
	n := c * s
	g := graph.New(n)
	g.EnsureNode(graph.NodeID(n - 1))
	truth := make([]int32, n)
	for i := 0; i < n; i++ {
		truth[i] = int32(i / s)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if truth[i] == truth[j] {
				p = pIn
			}
			if rng.Float64() < p {
				g.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return g, truth
}

func TestTwoCliquesSeparated(t *testing.T) {
	g := twoCliques(8)
	res, err := Run(g, Options{Delta: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() != 2 {
		t.Fatalf("communities = %d, want 2 (got %v)", res.NumCommunities(), res.Community)
	}
	// All of clique 1 together, all of clique 2 together.
	for i := 1; i < 8; i++ {
		if res.Community[i] != res.Community[0] {
			t.Fatalf("clique 1 fractured: %v", res.Community)
		}
		if res.Community[8+i] != res.Community[8] {
			t.Fatalf("clique 2 fractured: %v", res.Community)
		}
	}
	if res.Community[0] == res.Community[8] {
		t.Fatal("cliques merged")
	}
	if res.Modularity < 0.4 {
		t.Fatalf("modularity = %v", res.Modularity)
	}
}

func TestPlantedPartitionRecovered(t *testing.T) {
	g, truth := plantedPartition(4, 16, 0.6, 0.01, 7)
	res, err := Run(g, Options{Delta: 1e-6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() != 4 {
		t.Fatalf("communities = %d, want 4", res.NumCommunities())
	}
	// Check the partition matches the planted truth exactly (up to labels).
	label := map[int32]int32{}
	for i, c := range res.Community {
		want, ok := label[truth[i]]
		if !ok {
			label[truth[i]] = c
			continue
		}
		if c != want {
			t.Fatalf("node %d misassigned", i)
		}
	}
}

func TestModularityKnownValue(t *testing.T) {
	// Two triangles joined by one edge, communities = the triangles.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	g.AddEdge(2, 3)
	comm := []int32{0, 0, 0, 1, 1, 1}
	// m = 7, 2m = 14. in: each triangle 2*3=6. tot: 7 per community.
	// Q = 2*(6/14 - (7/14)^2) = 2*(0.428571 - 0.25) = 0.357142...
	q := Modularity(g, comm)
	want := 2 * (6.0/14 - 0.25)
	if d := q - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("Q = %v, want %v", q, want)
	}
}

func TestModularityBadLength(t *testing.T) {
	g := twoCliques(3)
	if got := Modularity(g, []int32{0}); got != 0 {
		t.Fatalf("bad length must be 0, got %v", got)
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res, err := Run(graph.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() != 0 || res.Modularity != 0 {
		t.Fatalf("empty: %+v", res)
	}
}

func TestRunEdgelessGraph(t *testing.T) {
	g := graph.New(5)
	g.EnsureNode(4)
	res, err := Run(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Community) != 5 {
		t.Fatalf("len = %d", len(res.Community))
	}
	// Isolated nodes stay singletons.
	if res.NumCommunities() != 5 {
		t.Fatalf("communities = %d", res.NumCommunities())
	}
}

func TestInitLengthChecked(t *testing.T) {
	g := twoCliques(3)
	if _, err := Run(g, Options{Init: []int32{0, 1}}); err != ErrInitLength {
		t.Fatalf("err = %v", err)
	}
}

func TestIncrementalSeedPreservesLabels(t *testing.T) {
	// Seeding with the perfect partition must keep it (and converge fast).
	g := twoCliques(10)
	init := make([]int32, 20)
	for i := 10; i < 20; i++ {
		init[i] = 1
	}
	res, err := Run(g, Options{Delta: 1e-6, Seed: 3, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() != 2 {
		t.Fatalf("communities = %d", res.NumCommunities())
	}
	for i := 1; i < 10; i++ {
		if res.Community[i] != res.Community[0] {
			t.Fatal("clique 1 fractured under incremental seed")
		}
	}
}

func TestIncrementalWithNewNodes(t *testing.T) {
	// Previous partition for 16 nodes; 4 new nodes marked -1.
	g, _ := plantedPartition(2, 10, 0.7, 0.02, 5)
	init := make([]int32, 20)
	for i := 0; i < 10; i++ {
		init[i] = 0
	}
	for i := 10; i < 16; i++ {
		init[i] = 1
	}
	for i := 16; i < 20; i++ {
		init[i] = -1
	}
	res, err := Run(g, Options{Delta: 1e-6, Seed: 4, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() != 2 {
		t.Fatalf("communities = %d, want 2", res.NumCommunities())
	}
}

func TestGroupsPartitionNodes(t *testing.T) {
	g, _ := plantedPartition(3, 8, 0.7, 0.02, 9)
	res, err := Run(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]bool{}
	for _, grp := range res.Groups() {
		for _, u := range grp {
			if seen[u] {
				t.Fatalf("node %d in two groups", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("groups cover %d of %d nodes", len(seen), g.NumNodes())
	}
}

func TestDeltaMonotonicity(t *testing.T) {
	// A very large δ must terminate immediately-ish and produce no better
	// modularity than a tiny δ.
	g, _ := plantedPartition(4, 12, 0.6, 0.03, 11)
	loose, err := Run(g, Options{Delta: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Run(g, Options{Delta: 1e-7, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Modularity < loose.Modularity-1e-9 {
		t.Fatalf("tight δ worse: %v < %v", tight.Modularity, loose.Modularity)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g, _ := plantedPartition(3, 10, 0.6, 0.02, 13)
	a, err := Run(g, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Community {
		if a.Community[i] != b.Community[i] {
			t.Fatal("same seed must give identical partitions")
		}
	}
}

func TestModularityInvariantUnderRelabel(t *testing.T) {
	g, _ := plantedPartition(3, 8, 0.5, 0.05, 17)
	res, _ := Run(g, Options{Seed: 1})
	// Relabel communities (swap 0 and 1) — Q must not change.
	relab := make([]int32, len(res.Community))
	for i, c := range res.Community {
		switch c {
		case 0:
			relab[i] = 1
		case 1:
			relab[i] = 0
		default:
			relab[i] = c
		}
	}
	q1, q2 := Modularity(g, res.Community), Modularity(g, relab)
	if d := q1 - q2; d > 1e-9 || d < -1e-9 {
		t.Fatalf("Q changed under relabel: %v vs %v", q1, q2)
	}
}

func TestDensify(t *testing.T) {
	got := densify([]int32{7, 7, 3, 9, 3})
	want := []int32{0, 0, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("densify = %v, want %v", got, want)
		}
	}
}

// TestInitMinusOneIsOneSharedCommunity pins what Options.Init does with
// -1 labels: they are densified like any other value, so every -1 node
// starts in one shared community rather than as a singleton. A seed of
// all -1 is therefore the one-community partition, which no local move
// can leave (no node has a neighbor in another community), giving Q = 0.
func TestInitMinusOneIsOneSharedCommunity(t *testing.T) {
	g := twoCliques(8)
	all := make([]int32, g.NumNodes())
	for i := range all {
		all[i] = -1
	}
	res, err := Run(g, Options{Delta: 1e-6, Seed: 1, Init: all})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() != 1 || res.Modularity != 0 {
		t.Fatalf("all -1 seed: %d communities, Q=%v; want 1 community, Q=0", res.NumCommunities(), res.Modularity)
	}

	// A -1 label behaves exactly like a fresh shared label.
	g2, _ := plantedPartition(3, 10, 0.6, 0.05, 21)
	mixed := make([]int32, g2.NumNodes())
	fresh := make([]int32, g2.NumNodes())
	for i := range mixed {
		mixed[i] = int32(i % 4)
		if i%3 == 0 {
			mixed[i] = -1
		}
		fresh[i] = mixed[i]
		if fresh[i] < 0 {
			fresh[i] = 99
		}
	}
	a, err := Run(g2, Options{Delta: 0.01, Seed: 2, Init: mixed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g2, Options{Delta: 0.01, Seed: 2, Init: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Community, b.Community) || a.Modularity != b.Modularity {
		t.Fatal("-1 seed labels must act as one fresh shared label")
	}
}
