package spanning

// DFSOrders fills piL and piR, each of length n, with the LEFT-DFS-ORDER
// and RIGHT-DFS-ORDER of the tree (Section 3.1.1) given, in CSR form,
// each vertex's children in clockwise rotation order starting just after
// the parent dart (position 1, 2, ... in the paper's normalized embedding
// t_v): children[off[v]:off[v+1]] lists v's children. It allocates
// nothing, so a configuration rebuilt in place reuses both arrays.
//
// The RIGHT-DFS-ORDER visits children by ascending rotation position
// (clockwise); the LEFT-DFS-ORDER by descending position
// (counterclockwise). Orders are 0-based: pi[root] == 0.
//
// The returned orders satisfy, for every vertex v, that the vertices of the
// subtree T_v occupy the contiguous interval [pi[v], pi[v]+n_T(v)-1].
//
// Only the RIGHT order is walked. On the tree path to v, each ancestor a
// with path child c puts the subtrees of c's siblings before c in one
// order and after it in the other, so the two orders together place
// depth(v) ancestors twice and Σ (n_T(a) − 1 − n_T(c)) = n − n_T(v) −
// depth(v) other vertices once before v:
//
//	piL[v] = n − n_T(v) + depth(v) − piR[v].
func DFSOrders(t *Tree, off, children []int32, piL, piR []int) {
	n := t.N()
	// Every vertex is pushed once, so piL, not yet written, holds the
	// stack.
	stack := piL[:0]
	stack = append(stack, t.Root)
	timer := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		piR[v] = timer
		timer++
		// Visit ascending position: push descending.
		cs := children[off[v]:off[v+1]]
		for i := len(cs) - 1; i >= 0; i-- {
			stack = append(stack, int(cs[i]))
		}
	}
	for v := range piL {
		piL[v] = n - int(t.size[v]) + t.Depth[v] - piR[v]
	}
}
