// Package spanning provides rooted spanning trees and the tree machinery
// used throughout the paper: subtree sizes, ancestor tests, lowest common
// ancestors, tree paths, re-rooting, and the LEFT/RIGHT DFS orders of a
// spanning tree with respect to an embedding (Section 3.1.1).
//
// Tree state is arena-backed (DESIGN.md §13): children lists live in one CSR
// child array, subtree-size/tin/tout share one contiguous int32 arena, and
// the binary-lifting ancestor table is a single stride-n array.
package spanning

import (
	"fmt"
	"sync"

	"planardfs/internal/graph"
)

// Tree is a rooted tree over vertices 0..n-1 given by parent pointers.
type Tree struct {
	Root   int
	Parent []int // Parent[Root] == -1
	Depth  []int
	// CSR children: the children of v, ascending by vertex id, are
	// childList[childOff[v]:childOff[v+1]].
	childOff  []int32
	childList []int32
	// arena holds size/tin/tout back to back: size = arena[0:n],
	// tin = arena[n:2n], tout = arena[2n:3n].
	arena           []int32
	size, tin, tout []int32
	// upFlat is the binary-lifting ancestor table, stride n:
	// upFlat[k*n+v] is the 2^k-th ancestor of v (or root). The first
	// Ancestor or LCA call that needs it builds it, once under lift, so
	// concurrent queries on a shared tree are safe.
	lift   sync.Once
	upFlat []int32
	upLev  int
	// order is BuildBFS's queue, kept for the next rebuild.
	order []int
}

// NewFromParents builds a tree from a parent array. parent[root] must be -1
// and every other vertex must reach root by following parents.
func NewFromParents(root int, parent []int) (*Tree, error) {
	n := len(parent)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("spanning: root %d out of range", root)
	}
	t := &Tree{Parent: append([]int(nil), parent...)}
	if err := t.link(root); err != nil {
		return nil, err
	}
	return t, nil
}

// BFSTree returns the BFS spanning tree of g rooted at root. The graph must
// be connected.
func BFSTree(g *graph.Graph, root int) (*Tree, error) {
	t := &Tree{}
	if err := t.BuildBFS(g, root); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildBFS rebuilds t in place as the BFS spanning tree of g rooted at
// root, reusing t's storage, its lifting table included: the per-component
// form of BFSTree, which the separator workspace runs for every component
// of a build. The graph must be connected. t must not be read while it is
// rebuilt, and after an error it holds no tree.
func (t *Tree) BuildBFS(g *graph.Graph, root int) error {
	if err := g.CheckVertex(root); err != nil {
		return err
	}
	res := graph.BFSResult{Dist: t.Depth, Parent: t.Parent, Order: t.order}
	g.BFSInto(&res, root)
	t.Depth, t.Parent, t.order = res.Dist, res.Parent, res.Order
	if len(res.Order) != g.N() {
		for v, d := range res.Dist {
			if d < 0 {
				return fmt.Errorf("spanning: vertex %d unreachable from %d", v, root)
			}
		}
	}
	return t.link(root)
}

// link finishes a tree whose Parent is set, reusing t's storage: it
// checks the parent array, builds the child CSR, the depths and the
// preorder intervals, and resets the lifting table for its first use.
func (t *Tree) link(root int) error {
	n := len(t.Parent)
	parent := t.Parent
	if parent[root] != -1 {
		return fmt.Errorf("spanning: parent[root] = %d, want -1", parent[root])
	}
	t.Root = root
	// CSR children, filled by an ascending vertex scan so each list is
	// ascending by child id. childOff[p] serves as p's fill cursor and
	// ends at p+1's start, so one shift restores the offsets.
	t.childOff = graph.Resize(t.childOff, n+1)
	clear(t.childOff)
	for v := 0; v < n; v++ {
		p := parent[v]
		if v == root {
			continue
		}
		if p < 0 || p >= n || p == v {
			return fmt.Errorf("spanning: invalid parent %d of %d", p, v)
		}
		t.childOff[p+1]++
	}
	for v := 0; v < n; v++ {
		t.childOff[v+1] += t.childOff[v]
	}
	t.childList = graph.Resize(t.childList, int(t.childOff[n]))
	for v := 0; v < n; v++ {
		if p := parent[v]; v != root {
			//planarvet:narrowok v < n, and graph.New bounds n to MaxInt32
			t.childList[t.childOff[p]] = int32(v)
			t.childOff[p]++
		}
	}
	copy(t.childOff[1:], t.childOff[:n])
	t.childOff[0] = 0
	// Compute depths by BFS from root, queued in the arena before the
	// intervals fill it; detects unreachable vertices and cycles.
	t.arena = graph.Resize(t.arena, 3*n)
	t.Depth = graph.Resize(t.Depth, n)
	for v := range t.Depth {
		t.Depth[v] = -1
	}
	t.Depth[root] = 0
	queue := t.arena[:n]
	//planarvet:narrowok root < n, and graph.New bounds n to MaxInt32
	queue[0] = int32(root)
	seen := 1
	for head := 0; head < seen; head++ {
		v := queue[head]
		for _, c := range t.childList[t.childOff[v]:t.childOff[v+1]] {
			if t.Depth[c] >= 0 {
				return fmt.Errorf("spanning: vertex %d visited twice", c)
			}
			t.Depth[c] = t.Depth[v] + 1
			queue[seen] = c
			seen++
		}
	}
	if seen != n {
		return fmt.Errorf("spanning: %d of %d vertices reachable from root", seen, n)
	}
	t.computeIntervals()
	t.lift = sync.Once{}
	return nil
}

// DeepDFSTree returns a depth-first spanning tree of g rooted at root,
// visiting neighbours in incident-edge insertion order. Its depth can be
// Θ(n) even when the graph diameter is small, which is the stress case for
// the paper's subroutines.
func DeepDFSTree(g *graph.Graph, root int) (*Tree, error) {
	if err := g.CheckVertex(root); err != nil {
		return nil, err
	}
	n := g.N()
	parent := make([]int, n)
	visited := make([]bool, n)
	for i := range parent {
		parent[i] = -2
	}
	// True depth-first traversal: a vertex's parent is fixed when it is
	// first *visited* (popped), not when discovered, so the resulting tree
	// has the DFS ancestor/descendant property.
	type item struct{ v, from int }
	stack := []item{{root, -1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[it.v] {
			continue
		}
		visited[it.v] = true
		parent[it.v] = it.from
		ids := g.IncidentEdges(it.v)
		for i := len(ids) - 1; i >= 0; i-- {
			w := g.Other(int(ids[i]), it.v)
			if !visited[w] {
				stack = append(stack, item{w, it.v})
			}
		}
	}
	for v, p := range parent {
		if p == -2 {
			return nil, fmt.Errorf("spanning: vertex %d unreachable from %d", v, root)
		}
	}
	return NewFromParents(root, parent)
}

// computeIntervals fills the preorder intervals and subtree sizes into
// the arena by one walk down the child CSR and back up the parents. Until
// v is left, tout[v] is the cursor into its child list.
func (t *Tree) computeIntervals() {
	n := len(t.Parent)
	t.size = t.arena[0:n:n]
	t.tin = t.arena[n : 2*n : 2*n]
	t.tout = t.arena[2*n : 3*n : 3*n]
	v := t.Root
	t.tin[v], t.tout[v] = 0, t.childOff[v]
	timer := int32(1)
	for {
		if cur := t.tout[v]; cur < t.childOff[v+1] {
			c := t.childList[cur]
			t.tout[v]++
			t.tin[c], t.tout[c] = timer, t.childOff[c]
			timer++
			v = int(c)
			continue
		}
		t.tout[v] = timer
		t.size[v] = t.tout[v] - t.tin[v]
		if v == t.Root {
			return
		}
		v = t.Parent[v]
	}
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.Parent) }

// Children returns v's children (ascending vertex id) as a view into the CSR
// child array. The returned slice must not be modified.
func (t *Tree) Children(v int) []int32 {
	return t.childList[t.childOff[v]:t.childOff[v+1]]
}

// ChildCount returns the number of children of v.
func (t *Tree) ChildCount(v int) int { return int(t.childOff[v+1] - t.childOff[v]) }

// SubtreeSize returns n_T(v), the number of vertices in the subtree T_v.
func (t *Tree) SubtreeSize(v int) int { return int(t.size[v]) }

// Interval returns v's preorder interval [lo, hi): the subtree rooted at v
// contains exactly the vertices whose preorder time lies in the interval.
// This is the DFS-order structure the serve layer answers interval and
// ancestry queries from without re-running any pipeline.
func (t *Tree) Interval(v int) (lo, hi int) { return int(t.tin[v]), int(t.tout[v]) }

// IsAncestor reports whether a is an ancestor of v (every vertex is an
// ancestor of itself, matching the paper's convention v ∈ T_u).
func (t *Tree) IsAncestor(a, v int) bool {
	return t.tin[a] <= t.tin[v] && t.tin[v] < t.tout[a]
}

func (t *Tree) buildLifting() {
	t.lift.Do(t.fillLifting)
}

func (t *Tree) fillLifting() {
	n := len(t.Parent)
	logN := 1
	for 1<<logN < n {
		logN++
	}
	t.upLev = logN + 1
	t.upFlat = graph.Resize(t.upFlat, t.upLev*n)
	up0 := t.upFlat[:n]
	for v := 0; v < n; v++ {
		if t.Parent[v] < 0 {
			up0[v] = int32(v)
		} else {
			up0[v] = int32(t.Parent[v])
		}
	}
	for k := 1; k < t.upLev; k++ {
		cur := t.upFlat[k*n : (k+1)*n]
		prev := t.upFlat[(k-1)*n : k*n]
		for v := 0; v < n; v++ {
			cur[v] = prev[prev[v]]
		}
	}
}

// Ancestor returns the k-th ancestor of v (the root if k exceeds the depth).
func (t *Tree) Ancestor(v, k int) int {
	if k >= t.Depth[v] {
		// Also guards the binary lifting against k beyond the table range,
		// whose high bits the loop below would silently drop.
		return t.Root
	}
	t.buildLifting()
	n := len(t.Parent)
	for i := 0; k > 0 && i < t.upLev; i++ {
		if k&1 == 1 {
			v = int(t.upFlat[i*n+v])
		}
		k >>= 1
	}
	return v
}

// LCA returns the lowest common ancestor of u and v.
func (t *Tree) LCA(u, v int) int {
	if t.IsAncestor(u, v) {
		return u
	}
	if t.IsAncestor(v, u) {
		return v
	}
	t.buildLifting()
	n := len(t.Parent)
	for k := t.upLev - 1; k >= 0; k-- {
		if !t.IsAncestor(int(t.upFlat[k*n+u]), v) {
			u = int(t.upFlat[k*n+u])
		}
	}
	return t.Parent[u]
}

// PathUp returns the path from v up to ancestor a, inclusive on both ends.
// It returns an error if a is not an ancestor of v, so callers handling
// adversarial inputs (the certification verifiers) cannot be crashed.
func (t *Tree) PathUp(v, a int) ([]int, error) {
	if v < 0 || v >= len(t.Parent) || a < 0 || a >= len(t.Parent) {
		return nil, fmt.Errorf("spanning: PathUp(%d, %d) out of range", v, a)
	}
	if !t.IsAncestor(a, v) {
		return nil, fmt.Errorf("spanning: %d is not an ancestor of %d", a, v)
	}
	return t.pathUp(v, a), nil
}

// pathUp is the unchecked walk; a must be an ancestor of v.
func (t *Tree) pathUp(v, a int) []int {
	var path []int
	for x := v; ; x = t.Parent[x] {
		path = append(path, x)
		if x == a {
			break
		}
	}
	return path
}

// TPath returns the unique tree path from u to v (inclusive).
func (t *Tree) TPath(u, v int) []int {
	w := t.LCA(u, v)
	up := t.pathUp(u, w)   // u .. w
	down := t.pathUp(v, w) // v .. w
	for i := len(down) - 2; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// FirstOnPath returns the first vertex after u on the tree path from u to v.
// It returns an error if u == v (the path has no second vertex).
func (t *Tree) FirstOnPath(u, v int) (int, error) {
	if u == v {
		return -1, fmt.Errorf("spanning: FirstOnPath with u == v (%d)", u)
	}
	if u < 0 || u >= len(t.Parent) || v < 0 || v >= len(t.Parent) {
		return -1, fmt.Errorf("spanning: FirstOnPath(%d, %d) out of range", u, v)
	}
	if t.IsAncestor(u, v) {
		// Descend: the child of u that is an ancestor of v.
		return t.Ancestor(v, t.Depth[v]-t.Depth[u]-1), nil
	}
	return t.Parent[u], nil
}

// MustFirstOnPath is FirstOnPath for callers holding the u != v invariant; it
// panics on violation and must not be used on untrusted inputs.
func (t *Tree) MustFirstOnPath(u, v int) int {
	x, err := t.FirstOnPath(u, v)
	if err != nil {
		panic(err.Error())
	}
	return x
}

// ReRoot returns a new tree with the same edge set rooted at newRoot
// (Lemma 19's reference semantics).
func (t *Tree) ReRoot(newRoot int) (*Tree, error) {
	n := len(t.Parent)
	if newRoot < 0 || newRoot >= n {
		return nil, fmt.Errorf("spanning: ReRoot target %d out of range", newRoot)
	}
	parent := make([]int, n)
	copy(parent, t.Parent)
	// Reverse the path from newRoot to the old root.
	prev := -1
	for x := newRoot; x != -1; {
		next := parent[x]
		parent[x] = prev
		prev = x
		x = next
	}
	nt, err := NewFromParents(newRoot, parent)
	if err != nil {
		return nil, fmt.Errorf("spanning: ReRoot produced invalid tree: %w", err)
	}
	return nt, nil
}

// Centroid returns a vertex whose removal leaves components of size at most
// n/2: walk from the root towards the heaviest child while some child
// subtree exceeds n/2. The tree path from the root to the centroid is a
// separator whose removal leaves components of size <= n/2 (tree case of
// Lemma 1).
func (t *Tree) Centroid() int {
	n := len(t.Parent)
	v := t.Root
	for {
		next := -1
		for _, c := range t.childList[t.childOff[v]:t.childOff[v+1]] {
			if 2*int(t.size[c]) > n {
				next = int(c)
				break
			}
		}
		if next < 0 {
			return v
		}
		v = next
	}
}

// Edges returns the n-1 tree edges as vertex pairs (child, parent).
func (t *Tree) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(t.Parent)-1)
	for v, p := range t.Parent {
		if p >= 0 {
			out = append(out, graph.Edge{U: v, V: p})
		}
	}
	return out
}

// MaxDepth returns the depth of the deepest vertex.
func (t *Tree) MaxDepth() int {
	d := 0
	for _, x := range t.Depth {
		if x > d {
			d = x
		}
	}
	return d
}
