package graph

import (
	"testing"

	"repro/internal/stats"
)

// path builds 0-1-2-...-n-1.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	d := g.BFS(0)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Fatalf("dist[%d] = %d", i, d[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(0)
	g.AddEdge(0, 1)
	g.EnsureNode(3)
	d := g.BFS(0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Fatalf("isolated nodes must be unreachable: %v", d)
	}
	if d[1] != 1 {
		t.Fatalf("dist[1] = %d", d[1])
	}
}

func TestBFSBadSource(t *testing.T) {
	g := path(3)
	d := g.BFS(-1)
	for _, x := range d {
		if x != Unreachable {
			t.Fatal("bad source must reach nothing")
		}
	}
	d = g.BFS(100)
	for _, x := range d {
		if x != Unreachable {
			t.Fatal("out-of-range source must reach nothing")
		}
	}
}

func TestShortestToSet(t *testing.T) {
	g := path(6)
	target := func(v NodeID) bool { return v == 4 || v == 5 }
	var sc SetSearch
	if d := g.ShortestToSet(0, target, nil, &sc); d != 4 {
		t.Fatalf("dist = %d, want 4", d)
	}
	if d := g.ShortestToSet(4, target, nil, &sc); d != 0 {
		t.Fatalf("src in target set: dist = %d, want 0", d)
	}
	// Blocked by predicate.
	if d := g.ShortestToSet(0, target, func(v NodeID) bool { return v != 3 }, &sc); d != Unreachable {
		t.Fatalf("dist = %d, want unreachable when cut", d)
	}
	if d := g.ShortestToSet(-1, target, nil, &sc); d != Unreachable {
		t.Fatalf("bad src: %d", d)
	}
}

// bfsAllowed is the reference ShortestToSet is checked against: a plain
// BFS from src that enters a node only if allowed admits it (nil admits
// every node; the source is always entered).
func bfsAllowed(g *Graph, src NodeID, allowed func(NodeID) bool) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		g.ForEachNeighbor(u, func(v NodeID) {
			if dist[v] == Unreachable && (allowed == nil || allowed(v)) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		})
	}
	return dist
}

// TestShortestToSetMatchesBFS holds ShortestToSet to the nearest target of
// a full restricted BFS, under random target sets and allowed predicates
// (nil included), with one SetSearch reused across every call while the
// graph grows: a stale distance left by an early exit would show as a
// wrong or missing route on a later call.
func TestShortestToSetMatchesBFS(t *testing.T) {
	rng := stats.NewRand(5)
	g := New(0)
	var sc SetSearch
	n := 0
	for round := 0; round < 6; round++ {
		n += 40
		for i := 0; i < 100; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g.EnsureNode(NodeID(n + 5)) // a few isolated nodes
		for trial := 0; trial < 8; trial++ {
			isTarget := make([]bool, g.NumNodes())
			isAllowed := make([]bool, g.NumNodes())
			for v := range isTarget {
				isTarget[v] = rng.Intn(12) == 0
				isAllowed[v] = rng.Intn(4) != 0
			}
			target := func(v NodeID) bool { return isTarget[v] }
			allowed := func(v NodeID) bool { return isAllowed[v] }
			if trial%3 == 0 {
				allowed = nil
			}
			for src := NodeID(0); int(src) < g.NumNodes(); src++ {
				want := int32(Unreachable)
				for v, d := range bfsAllowed(g, src, allowed) {
					if isTarget[v] && d != Unreachable && (want == Unreachable || d < want) {
						want = d
					}
				}
				if got := g.ShortestToSet(src, target, allowed, &sc); got != want {
					t.Fatalf("round %d trial %d src %d: got %d want %d", round, trial, src, got, want)
				}
			}
		}
	}
}

func TestBFSTriangleInequality(t *testing.T) {
	// Property: for edge (u,v), |dist(s,u) - dist(s,v)| <= 1 when both reachable.
	rng := stats.NewRand(9)
	g := New(0)
	const n = 80
	for i := 0; i < 200; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	d := g.BFS(0)
	bad := false
	g.ForEachEdge(func(u, v NodeID) {
		if d[u] != Unreachable && d[v] != Unreachable {
			diff := d[u] - d[v]
			if diff < -1 || diff > 1 {
				bad = true
			}
		}
	})
	if bad {
		t.Fatal("BFS distances violate edge Lipschitz property")
	}
}
