package cert

import (
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// White-box adversarial tests: corrupt one field of one label and assert
// the verifier catches it — the verdict flips to reject with at least one
// rejecting vertex.

func cloneLabels(labels [][]int) [][]int {
	out := make([][]int, len(labels))
	for v := range labels {
		out[v] = append([]int(nil), labels[v]...)
	}
	return out
}

func gridInstance(t *testing.T) *gen.Instance {
	t.Helper()
	in, err := gen.ByName("grid", 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func wantReject(t *testing.T, v *Verdict, err error, name string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if v.OK {
		t.Fatalf("%s: corrupted labels accepted", name)
	}
	if len(v.Rejectors) == 0 {
		t.Fatalf("%s: rejected without a rejecting vertex", name)
	}
}

func TestSpanningMutations(t *testing.T) {
	in := gridInstance(t)
	g := in.G
	st, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := ProveSpanningTree(st)
	if v, err := NewVerifier(g, Options{}).VerifySpanningTree(good); err != nil || !v.OK {
		t.Fatalf("baseline: %v %+v", err, v)
	}
	x := g.N() - 1 // any non-root vertex (root is 0)
	mutations := []struct {
		name   string
		mutate func(l [][]int)
	}{
		{"depth-off-by-one", func(l [][]int) { l[x][2]++ }},
		{"root-id-flip", func(l [][]int) { l[x][0] = (l[x][0] + 1) % g.N() }},
		{"parent-non-neighbor", func(l [][]int) { l[x][1] = x }},
		{"orphaned-root", func(l [][]int) { l[st.Root][1] = g.Neighbors(st.Root)[0] }},
	}
	for _, m := range mutations {
		labels := cloneLabels(good)
		m.mutate(labels)
		v, err := NewVerifier(g, Options{}).VerifySpanningTree(labels)
		wantReject(t, v, err, m.name)
	}
}

func TestDFSMutations(t *testing.T) {
	in := gridInstance(t)
	g := in.G
	dt, err := spanning.DeepDFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := ProveDFSTree(g, 0, dt.Parent)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := NewVerifier(g, Options{}).VerifyDFSTree(good); err != nil || !v.OK {
		t.Fatalf("baseline: %v %+v", err, v)
	}
	x := g.N() - 1 // non-root: tin >= 1
	mutations := []struct {
		name   string
		mutate func(l [][]int)
	}{
		{"tin-shift", func(l [][]int) { l[x][1]++ }},
		{"interval-inverted", func(l [][]int) { l[x][1], l[x][2] = l[x][2], l[x][1] }},
		{"second-root", func(l [][]int) { l[x][0] = -1 }},
		{"tout-shrunk", func(l [][]int) { l[0][2]-- }},
	}
	for _, m := range mutations {
		labels := cloneLabels(good)
		m.mutate(labels)
		v, err := NewVerifier(g, Options{}).VerifyDFSTree(labels)
		wantReject(t, v, err, m.name)
	}
}

func TestSeparatorMutations(t *testing.T) {
	in := gridInstance(t)
	g := in.G
	root := in.Emb.FaceRoot(in.OuterDart)
	tr, err := spanning.BFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(g, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := separator.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewVerifier(g, Options{}).ProveSeparator(sep)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := NewVerifier(g, Options{}).VerifySeparator(good); err != nil || !v.OK {
		t.Fatalf("baseline: %v %+v", err, v)
	}
	// A vertex off the separator path (grid separators always leave some).
	off := -1
	for v := range good {
		if good[v][sepFSide] != 0 {
			off = v
			break
		}
	}
	if off < 0 {
		t.Fatal("no off-path vertex in grid separator")
	}
	onPath := sep.Path[0]
	mutations := []struct {
		name   string
		mutate func(l [][]int)
	}{
		{"side-flip", func(l [][]int) { l[off][sepFSide] = 3 - l[off][sepFSide] }},
		{"side-joins-path", func(l [][]int) { l[off][sepFSide] = 0 }},
		{"pos-out-of-range", func(l [][]int) { l[onPath][sepFPos] = l[onPath][sepFLen] }},
		{"claimed-length", func(l [][]int) { l[off][sepFLen]++ }},
		{"subtree-count", func(l [][]int) { l[off][sepFSumS]++ }},
		{"side-count-unbalanced", func(l [][]int) {
			for v := range l {
				l[v][sepFCountA] = g.N()
			}
		}},
	}
	for _, m := range mutations {
		labels := cloneLabels(good)
		m.mutate(labels)
		v, err := NewVerifier(g, Options{}).VerifySeparator(labels)
		wantReject(t, v, err, m.name)
	}
}

func TestEmbeddingMutations(t *testing.T) {
	in := gridInstance(t)
	g := in.G
	good := ProveEmbedding(in.Emb)
	if v, err := NewVerifier(g, Options{}).VerifyEmbedding(good); err != nil || !v.OK {
		t.Fatalf("baseline: %v %+v", err, v)
	}
	// A face-leading vertex (decrements must stay within the local bound so
	// only the Euler sum can catch them).
	leader := -1
	for v := range good {
		if good[v][1] > 0 {
			leader = v
			break
		}
	}
	if leader < 0 {
		t.Fatal("no face-leading vertex")
	}
	mutations := []struct {
		name   string
		mutate func(l [][]int)
	}{
		{"face-count-up", func(l [][]int) { l[0][1]++ }},
		{"face-count-down", func(l [][]int) { l[leader][1]-- }},
		{"degree-lie", func(l [][]int) { l[0][0]++ }},
	}
	for _, m := range mutations {
		labels := cloneLabels(good)
		m.mutate(labels)
		v, err := NewVerifier(g, Options{}).VerifyEmbedding(labels)
		wantReject(t, v, err, m.name)
	}
}
