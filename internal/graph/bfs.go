package graph

// Unreachable is the distance reported for nodes not reachable from the
// BFS source.
const Unreachable = -1

// BFS computes hop distances from src to every node. The result slice has
// one entry per node; unreachable nodes get Unreachable.
func (g *Graph) BFS(src NodeID) []int32 {
	n := len(g.deg)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || int(src) >= n {
		return dist
	}
	queue := []NodeID{src}
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for it := g.Chunks(u); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, v := range s {
				if dist[v] == Unreachable {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// SetSearch is caller-owned scratch for ShortestToSet: a distance column
// over node ids and a head-indexed queue. The queue holds every node a
// search labelled, so the search wipes exactly those entries back to
// Unreachable before it returns, and a reused SetSearch costs each search
// only the nodes it visits. The zero value is ready to use; a SetSearch
// must not be shared by concurrent searches.
type SetSearch struct {
	dist  []int32
	queue []NodeID
}

// ShortestToSet returns the hop distance from src to the nearest node for
// which target returns true, traversing only allowed nodes (nil allows all).
// Target nodes themselves must be allowed to be reached. It returns
// Unreachable when no target can be reached. This is the paper's inter-OSN
// distance experiment, which excludes post-merge users and their edges
// (Fig 9c).
func (g *Graph) ShortestToSet(src NodeID, target func(NodeID) bool, allowed func(NodeID) bool, sc *SetSearch) int32 {
	if src < 0 || int(src) >= len(g.deg) {
		return Unreachable
	}
	if target(src) {
		return 0
	}
	sc.dist = growInt32(sc.dist, len(g.deg), Unreachable)
	dist := sc.dist
	queue := append(sc.queue[:0], src)
	dist[src] = 0
	found := int32(Unreachable)
search:
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for it := g.Chunks(u); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, v := range s {
				if dist[v] != Unreachable {
					continue
				}
				if allowed != nil && !allowed(v) {
					continue
				}
				if target(v) {
					found = du + 1
					break search
				}
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	for _, v := range queue {
		dist[v] = Unreachable
	}
	sc.queue = queue
	return found
}
