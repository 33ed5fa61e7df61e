package spanning

// DFSOrders computes the LEFT-DFS-ORDER and RIGHT-DFS-ORDER of the tree
// (Section 3.1.1) given, in CSR form, each vertex's children in clockwise
// rotation order starting just after the parent dart (position 1, 2, ... in
// the paper's normalized embedding t_v): children[off[v]:off[v+1]] lists
// v's children. It allocates only the two order arrays and the DFS stack.
//
// The RIGHT-DFS-ORDER visits children by ascending rotation position
// (clockwise); the LEFT-DFS-ORDER by descending position
// (counterclockwise). Orders are 0-based: pi[root] == 0.
//
// The returned orders satisfy, for every vertex v, that the vertices of the
// subtree T_v occupy the contiguous interval [pi[v], pi[v]+n_T(v)-1].
func DFSOrders(t *Tree, off, children []int32) (piL, piR []int) {
	n := t.N()
	piL = make([]int, n)
	piR = make([]int, n)
	run(t, off, children, false, piR)
	run(t, off, children, true, piL)
	return piL, piR
}

// run fills pi with the DFS order visiting children in the given order
// (reversed if rev).
func run(t *Tree, off, children []int32, rev bool, pi []int) {
	timer := 0
	stack := make([]int32, 0, t.N())
	//planarvet:narrowok Root is a vertex id, < n and graph.New bounds n to MaxInt32
	stack = append(stack, int32(t.Root))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pi[v] = timer
		timer++
		cs := children[off[v]:off[v+1]]
		// Push children so that the first to visit is on top.
		if rev {
			// Visit descending position: push ascending.
			stack = append(stack, cs...)
		} else {
			// Visit ascending position: push descending.
			for i := len(cs) - 1; i >= 0; i-- {
				stack = append(stack, cs[i])
			}
		}
	}
}
