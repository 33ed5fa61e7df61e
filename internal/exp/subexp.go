package exp

import (
	"fmt"

	"planardfs/internal/congest"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
)

// E5Row measures the DFS-ORDER fragment-merging algorithm (Lemma 11):
// phases stay O(log n) even when the tree depth is Θ(n).
type E5Row struct {
	Family    string
	N         int
	TreeDepth int
	Phases    int
	LogBound  int
	PARounds  int // PA invocations of the run (res.Ops.PA), printed as PA-ops
}

// E5 counts the Lemma 11 fragment-merge phases on deep spanning trees.
func E5(families []string, n int, seed int64) ([]E5Row, error) {
	var rows []E5Row
	for _, fam := range families {
		in, err := gen.ByName(fam, n, seed)
		if err != nil {
			return nil, err
		}
		cfg, err := pipeline.NewConfig(in, pipeline.TreeDeepDFS, in.Emb.FaceRoot(in.OuterDart))
		if err != nil {
			return nil, err
		}
		tr := cfg.Tree
		order := make([][]int, tr.N())
		for v := 0; v < tr.N(); v++ {
			order[v] = cfg.ChildOrder(v)
		}
		res := countDFSOrderPhases(tr, order)
		// Cross-check against the centralized orders.
		for v := 0; v < tr.N(); v++ {
			if res.PiL[v] != cfg.PiL[v] || res.PiR[v] != cfg.PiR[v] {
				return nil, fmt.Errorf("E5: fragment-merged DFS order mismatch on %s at vertex %d", fam, v)
			}
		}
		rows = append(rows, E5Row{
			Family: fam, N: in.G.N(), TreeDepth: tr.MaxDepth(),
			Phases: res.Phases, LogBound: shortcut.Log2Ceil(tr.MaxDepth() + 2),
			PARounds: res.Ops.PA,
		})
	}
	return rows, nil
}

// E6Row measures MARK-PATH (Lemma 13): iterations O(log² n) versus the
// trivial O(path length).
type E6Row struct {
	Family     string
	N          int
	PathLen    int
	Phases     int
	Iterations int
	LogSquared int
}

// E6 counts the Lemma 13 phases that mark the longest root-to-leaf path
// of a deep spanning tree.
func E6(families []string, n int, seed int64) ([]E6Row, error) {
	var rows []E6Row
	for _, fam := range families {
		in, err := gen.ByName(fam, n, seed)
		if err != nil {
			return nil, err
		}
		root := in.Emb.FaceRoot(in.OuterDart)
		tr, err := spanning.DeepDFSTree(in.G, root)
		if err != nil {
			return nil, err
		}
		deepest := 0
		for v := 0; v < tr.N(); v++ {
			if tr.Depth[v] > tr.Depth[deepest] {
				deepest = v
			}
		}
		res := countMarkPathPhases(tr, root, deepest)
		l := shortcut.Log2Ceil(in.G.N() + 1)
		rows = append(rows, E6Row{
			Family: fam, N: in.G.N(), PathLen: tr.Depth[deepest] + 1,
			Phases: res.Phases, Iterations: res.Iterations, LogSquared: l * l,
		})
	}
	return rows, nil
}

// E8Row measures part-wise aggregation: measured pipelined rounds versus
// the cost-model estimates, and the tree-restricted shortcut quality. D is
// the depth of the BFS tree the aggregation runs over, the depth both
// estimates are priced at.
type E8Row struct {
	Family          string
	N, D, K         int
	MeasuredRounds  int
	PipelinedEst    int
	PaperEst        int
	MaxCongestion   int
	MaxDilation     int
	MessagesPerNode float64
}

// E8 sweeps the number of parts on one instance.
func E8(family string, n int, ks []int, seed int64) ([]E8Row, error) {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return nil, err
	}
	tr, err := spanning.BFSTree(in.G, 0)
	if err != nil {
		return nil, err
	}
	d := tr.MaxDepth()
	var rows []E8Row
	for _, k := range ks {
		// BFS-layer-interval parts: connected by construction when cut by
		// contiguous BFS-visit segments of a spanning-tree DFS order...
		// simplest connected partition: k segments of a DFS preorder.
		partOf := dfsSegments(tr, k)
		part, err := shortcut.NewPartition(partOf)
		if err != nil {
			return nil, err
		}
		if err := part.Validate(in.G); err != nil {
			return nil, err
		}
		value := make([]int, in.G.N())
		for v := range value {
			value[v] = 1
		}
		res, err := shortcut.RunPAOn(congest.New(in.G), tr, part, value, congest.OpSum)
		if err != nil {
			return nil, err
		}
		q, err := shortcut.MeasureQuality(in.G, 0, part)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E8Row{
			Family: family, N: in.G.N(), D: d, K: part.K(),
			MeasuredRounds:  res.Rounds,
			PipelinedEst:    (dist.Ops{PA: 1}).Rounds(shortcut.PipelinedCost{Depth: d}, part.K()),
			PaperEst:        (dist.Ops{PA: 1}).Rounds(shortcut.PaperCost{D: d, N: in.G.N()}, part.K()),
			MaxCongestion:   q.MaxCongestion,
			MaxDilation:     q.MaxDilation,
			MessagesPerNode: float64(res.Stats.Messages) / float64(in.G.N()),
		})
	}
	return rows, nil
}

// dfsSegments partitions vertices into about k connected parts by carving
// subtree chunks of a spanning tree: walking vertices bottom-up, each
// vertex accumulates the size of its uncut region; when a region reaches
// n/k vertices it is cut off as a part. Every part is a connected subtree
// region, so the partition is valid for part-wise aggregation.
func dfsSegments(tr *spanning.Tree, k int) []int {
	n := tr.N()
	target := (n + k - 1) / k
	// Preorder walk; reverse of it is a valid bottom-up order.
	var order []int
	stack := []int{tr.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		cs := tr.Children(v)
		for i := len(cs) - 1; i >= 0; i-- {
			stack = append(stack, int(cs[i]))
		}
	}
	cnt := make([]int, n)
	cut := make([]bool, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		c := 1
		for _, ch := range tr.Children(v) {
			if !cut[ch] {
				c += cnt[ch]
			}
		}
		cnt[v] = c
		if c >= target || v == tr.Root {
			cut[v] = true
		}
	}
	// Top-down part assignment: a cut vertex roots a fresh part.
	partOf := make([]int, n)
	next := 0
	for _, v := range order {
		if cut[v] {
			partOf[v] = next
			next++
		} else {
			partOf[v] = partOf[tr.Parent[v]]
		}
	}
	return partOf
}
