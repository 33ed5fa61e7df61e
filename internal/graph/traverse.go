package graph

// BFSResult holds the output of a breadth-first search.
type BFSResult struct {
	Source int
	// Dist[v] is the hop distance from Source, or -1 if unreachable.
	Dist []int
	// Parent[v] is the BFS-tree parent of v, or -1 for the source and
	// unreachable vertices.
	Parent []int
	// Order lists reached vertices in visit order (Source first).
	Order []int
}

// BFS runs a breadth-first search from src. Ties are broken by incident-edge
// insertion order, so the result is deterministic.
func (g *Graph) BFS(src int) *BFSResult {
	res := &BFSResult{}
	g.BFSInto(res, src)
	return res
}

// BFSInto is BFS into res, reusing the capacity of its three slices:
// Dist and Parent get length n and Order the visit order.
func (g *Graph) BFSInto(res *BFSResult, src int) {
	g.ensure()
	res.Source = src
	res.Dist = Resize(res.Dist, g.n)
	res.Parent = Resize(res.Parent, g.n)
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	// Order doubles as the queue: the vertices at or after head are
	// reached but not yet scanned.
	res.Order = append(Resize(res.Order, g.n)[:0], src)
	for head := 0; head < len(res.Order); head++ {
		v := res.Order[head]
		//planarvet:narrowok v is a vertex id from the queue, < n and New bounds n to MaxInt32
		v32 := int32(v)
		for _, id := range g.inc[g.off[v]:g.off[v+1]] {
			w := int(g.endU[id] + g.endV[id] - v32)
			if res.Dist[w] < 0 {
				res.Dist[w] = res.Dist[v] + 1
				res.Parent[w] = v
				res.Order = append(res.Order, w)
			}
		}
	}
}

// Eccentricity returns the maximum BFS distance from v to any reachable
// vertex.
func (g *Graph) Eccentricity(v int) int {
	res := g.BFS(v)
	ecc := 0
	for _, d := range res.Dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact hop diameter of g, computed by a BFS from every
// vertex. It returns 0 for graphs with fewer than two vertices and -1 for
// disconnected graphs.
func (g *Graph) Diameter() int {
	if g.n <= 1 {
		return 0
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		res := g.BFS(v)
		for _, d := range res.Dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Connected reports whether g is connected. The empty graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	res := g.BFS(0)
	return len(res.Order) == g.n
}

// Components returns the connected components of g, each as a sorted vertex
// list, ordered by smallest contained vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		res := g.BFS(v)
		comp := make([]int, 0, len(res.Order))
		for _, w := range res.Order {
			seen[w] = true
			comp = append(comp, w)
		}
		comps = append(comps, comp)
	}
	return comps
}

// ComponentsAvoidingMask returns the connected components of g after
// deleting the vertices v with removed[v] == true (a nil mask removes
// nothing), ordered by smallest vertex, each in BFS order from it. They
// share one backing array that doubles as the BFS queue, each capped at
// its own length.
func (g *Graph) ComponentsAvoidingMask(removed []bool) [][]int {
	g.ensure()
	seen := make([]bool, g.n)
	kept := g.n
	for _, r := range removed {
		if r {
			kept--
		}
	}
	order := make([]int, 0, kept)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] || (removed != nil && removed[v]) {
			continue
		}
		start := len(order)
		order = append(order, v)
		seen[v] = true
		for head := start; head < len(order); head++ {
			x := order[head]
			//planarvet:narrowok x is a vertex id from the queue, < n and New bounds n to MaxInt32
			x32 := int32(x)
			for _, id := range g.inc[g.off[x]:g.off[x+1]] {
				w := int(g.endU[id] + g.endV[id] - x32)
				if !seen[w] && (removed == nil || !removed[w]) {
					seen[w] = true
					order = append(order, w)
				}
			}
		}
		comps = append(comps, order[start:len(order):len(order)])
	}
	return comps
}
