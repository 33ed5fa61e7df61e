package chaos

import (
	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

// Prebuilt supervised stages for the message-level algorithms of
// internal/congest: each Run arms a fresh injector compiled from (plan,
// attempt) — so randomized faults are transient across retries — executes
// the node programs, and extracts the claimed output; each Certify runs
// the matching internal/cert proof-labeling verifier (or a centralized
// oracle where no scheme exists). The stage's pipeline-level counterpart —
// the Theorem 2 separator DFS under structural faults, with Awerbuch as
// fallback — is the dfs stage of internal/pipeline, which owns the
// planarity machinery.

// stageNetwork builds a fresh network over g for one attempt of a stage,
// traced per the certification options.
func stageNetwork(g *graph.Graph, opt cert.Options) *congest.Network {
	nw := congest.New(g)
	nw.Tracer = opt.Tracer
	return nw
}

// AwerbuchDFS is the token-DFS baseline as a supervised stage under the
// plan's message-level faults, certified by the DFS proof-labeling scheme.
// Its result is the claimed parent array.
func AwerbuchDFS(g *graph.Graph, root int, plan *Plan, opt cert.Options) Stage[[]int] {
	return AwerbuchDFSOn(cert.NewVerifier(g, opt), root, plan)
}

// AwerbuchDFSOn is AwerbuchDFS certified on the caller's Verifier. Each
// attempt still runs on a fresh network of the Verifier's graph, traced
// per its options.
func AwerbuchDFSOn(vf *cert.Verifier, root int, plan *Plan) Stage[[]int] {
	g, opt := vf.Graph(), vf.Options()
	var fired Counts
	return Stage[[]int]{
		Name:          "awerbuch",
		DefaultBudget: 10*g.N() + 100,
		Run: func(attempt, budget int) ([]int, int, error) {
			nw := stageNetwork(g, opt)
			inj := plan.Arm(nw, attempt)
			parent, rounds, err := congest.RunAwerbuch(nw, root, budget)
			if inj != nil {
				fired.Add(inj.Counts())
			}
			return parent, rounds, err
		},
		Certify: NewDFSTreeCertifier(vf, root).Certify,
		Faults:  func() Counts { return fired },
	}
}

// DFSCertifier judges a claimed DFS parent array with the DFS
// proof-labeling scheme, certifying every claim on one fresh Verifier of
// g. Malformed arrays (cycles, orphans, out-of-range parents) fail the
// prover's structural validation before any network runs; that is an
// explicit rejection of the claim, not an infrastructure error.
func DFSCertifier(g *graph.Graph, root int, opt cert.Options) func([]int) (Certification, error) {
	return NewDFSTreeCertifier(cert.NewVerifier(g, opt), root).Certify
}

// DFSTreeCertifier certifies DFS claims on one Verifier, so a caller that
// certifies more of the same graph shares its network, BFS tree and
// programs with every DFS claim. It keeps the tree view it built for the
// last claim, so the caller of a recovery run reuses the accepted
// attempt's view instead of building it again.
type DFSTreeCertifier struct {
	vf   *cert.Verifier
	root int
	// Tree is the tree view of the last claim Certify judged, nil when
	// that claim failed the structural precheck. The recovery runtime
	// stops at the first accepted attempt, so after an accepting run it is
	// the accepted claim's view.
	Tree *spanning.Tree
}

// NewDFSTreeCertifier returns a certifier of DFS claims rooted at root on
// vf.
func NewDFSTreeCertifier(vf *cert.Verifier, root int) *DFSTreeCertifier {
	return &DFSTreeCertifier{vf: vf, root: root}
}

// Certify judges a claimed DFS parent array. Malformed arrays fail the
// structural precheck of the tree view before any network runs.
func (c *DFSTreeCertifier) Certify(parent []int) (Certification, error) {
	t, err := spanning.NewFromParents(c.root, parent)
	c.Tree = t
	if err != nil {
		return Certification{Detail: "structural precheck: " + err.Error()}, nil
	}
	v, err := c.vf.VerifyDFSTree(cert.DFSTreeLabels(t))
	if err != nil {
		return Certification{}, err
	}
	return FromVerdict(v), nil
}

// BFSOutput is the claimed output of a distributed BFS run.
type BFSOutput struct {
	Parent []int
	Dist   []int
}

// BFSTreeStage is the flooding BFS as a supervised stage under the plan's
// message-level faults, certified by the BFS-tree proof-labeling scheme —
// the gap judge rejects the shallow-but-wrong spanning trees a dropped
// announce can leave behind. Every attempt is certified on one Verifier.
func BFSTreeStage(g *graph.Graph, root int, plan *Plan, opt cert.Options) Stage[BFSOutput] {
	vf := cert.NewVerifier(g, opt)
	var fired Counts
	return Stage[BFSOutput]{
		Name:          "bfs",
		DefaultBudget: 2*g.N() + 16,
		Run: func(attempt, budget int) (BFSOutput, int, error) {
			nw := stageNetwork(g, opt)
			inj := plan.Arm(nw, attempt)
			nodes := congest.NewBFSNodes(nw, root)
			rounds, err := nw.Run(nodes, budget)
			if inj != nil {
				fired.Add(inj.Counts())
			}
			if err != nil {
				return BFSOutput{}, rounds, err
			}
			out := BFSOutput{Parent: make([]int, g.N()), Dist: make([]int, g.N())}
			for v := range out.Parent {
				bn := nodes[v].(*congest.BFSNode)
				out.Parent[v] = bn.ParentID
				out.Dist[v] = bn.Dist
			}
			return out, rounds, nil
		},
		Certify: func(out BFSOutput) (Certification, error) {
			v, err := vf.VerifyBFSTree(cert.ProveBFSTree(root, out.Parent, out.Dist))
			if err != nil {
				return Certification{}, err
			}
			return FromVerdict(v), nil
		},
		Faults: func() Counts { return fired },
	}
}

// PartwiseSum is the part-wise aggregation primitive (Lemma: PA, OpSum) as
// a supervised stage under the plan's message-level faults, run over the
// BFS tree of g from root. Its result is the per-vertex aggregate array.
// No proof-labeling scheme exists for PA, so Certify is the centralized
// oracle: every vertex must hold exactly the sum of its part.
func PartwiseSum(g *graph.Graph, root int, partOf, value []int, plan *Plan, opt cert.Options) Stage[[]int] {
	t, terr := spanning.BFSTree(g, root)
	want := map[int]int{}
	for v, part := range partOf {
		want[part] += value[v]
	}
	var fired Counts
	return Stage[[]int]{
		Name:          "pa-sum",
		DefaultBudget: 8*g.N() + 64,
		Run: func(attempt, budget int) ([]int, int, error) {
			if terr != nil {
				return nil, 0, terr
			}
			nw := stageNetwork(g, opt)
			nw.MaxWords = 4
			inj := plan.Arm(nw, attempt)
			nodes := congest.NewPANodes(nw, t.Parent, root, partOf, value, congest.OpSum)
			rounds, err := nw.Run(nodes, budget)
			if inj != nil {
				fired.Add(inj.Counts())
			}
			if err != nil {
				return nil, rounds, err
			}
			res := make([]int, g.N())
			for v := range res {
				pn := nodes[v].(*congest.PANode)
				if !pn.HasResult {
					res[v] = int(^uint(0) >> 1) // no result: an impossible sum
					continue
				}
				res[v] = pn.Result
			}
			return res, rounds, nil
		},
		Certify: func(res []int) (Certification, error) {
			for v := range res {
				if res[v] != want[partOf[v]] {
					return Certification{
						Rejectors: 1,
						Detail:    "oracle: wrong part aggregate at a vertex",
					}, nil
				}
			}
			return Certification{OK: true}, nil
		},
		Faults: func() Counts { return fired },
	}
}
