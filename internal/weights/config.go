// Package weights implements the paper's fundamental-face machinery over a
// planar configuration (G, ℰ, T): normalized rotations (parent dart first,
// root anchored at the outer face), LEFT/RIGHT DFS orders, the deterministic
// weight formulas of Definition 2 (validated against geometric ground truth
// by Lemmas 3 and 4), ℰ-left/right orientation of fundamental edges
// (Definition 1), membership in fundamental faces (Remark 1), full
// augmentations from a face endpoint (Definition 3, Remark 2), and the
// hidden-node characterization (Definition 4, Lemma 6).
package weights

import (
	"fmt"

	"planardfs/internal/graph"
	"planardfs/internal/planar"
	"planardfs/internal/spanning"
)

// Config is a planar configuration (G, ℰ, T) with precomputed orders.
type Config struct {
	G     *graph.Graph
	Emb   *planar.Embedding
	Tree  *spanning.Tree
	Outer int // outer face index w.r.t. Emb.TraceFaces()

	// PiL and PiR are the LEFT and RIGHT DFS orders (0-based).
	PiL, PiR []int

	faces *planar.Faces
	// start[v] is the rotation index serving as normalized position 0:
	// the parent dart for non-roots, an outer-face dart for the root.
	start []int32
	// startDart[v] is the dart at normalized position 0, so for a
	// non-root v it is the dart from v to its tree parent.
	startDart []int32
	// rootAnchor is the dart of the root at normalized position 0.
	rootAnchor int
	// CSR child order: v's tree children by ascending normalized position
	// are childList[childOff[v]:childOff[v+1]].
	childOff, childList []int32
}

// NewConfig builds a planar configuration. The tree root must lie on the
// outer face (the paper's virtual-root convention).
func NewConfig(g *graph.Graph, emb *planar.Embedding, outerDart int, tree *spanning.Tree) (*Config, error) {
	cfg := &Config{}
	if err := cfg.Reset(g, emb, outerDart, tree); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Reset rebuilds cfg in place as the configuration NewConfig builds,
// reusing its storage: the faces, the normalized positions, the child
// order and both DFS orders. The separator workspace resets one
// configuration for every component of a build. After an error cfg
// holds no configuration.
func (cfg *Config) Reset(g *graph.Graph, emb *planar.Embedding, outerDart int, tree *spanning.Tree) error {
	if emb == nil || tree == nil || emb.Graph() != g {
		return fmt.Errorf("weights: configuration needs an embedding of g and a spanning tree")
	}
	if tree.N() != g.N() {
		return fmt.Errorf("weights: tree over %d vertices, graph has %d", tree.N(), g.N())
	}
	if g.M() == 0 {
		return fmt.Errorf("weights: configuration needs at least one edge")
	}
	if err := emb.CheckOuterDart(outerDart); err != nil {
		return err
	}
	if cfg.faces == nil {
		cfg.faces = &planar.Faces{}
	}
	faces := cfg.faces
	emb.TraceFacesInto(faces)
	outer := int(faces.FaceOf[outerDart])
	cfg.G, cfg.Emb, cfg.Tree, cfg.Outer = g, emb, tree, outer

	// startDart[v] is the dart at normalized position 0; start[v] its
	// rotation index. Both are found without materializing rotations.
	n := g.N()
	cfg.start = graph.Resize(cfg.start, n)
	cfg.startDart = graph.Resize(cfg.startDart, n)
	startDart := cfg.startDart
	for v := 0; v < n; v++ {
		if v == tree.Root {
			// Anchor the root at an outer-face corner: position 0 is a
			// dart whose face is the outer face (the corner where the
			// virtual parent r0 attaches).
			anchor := -1
			d0 := emb.FirstDart(v)
			if d0 >= 0 {
				for d := d0; ; {
					if int(faces.FaceOf[d]) == outer {
						anchor = d
						break
					}
					d = emb.NextCW(d)
					if d == d0 {
						break
					}
				}
			}
			if anchor < 0 {
				return fmt.Errorf("weights: tree root %d is not on the outer face", v)
			}
			cfg.start[v] = int32(emb.Pos(anchor))
			cfg.rootAnchor = anchor
			startDart[v] = int32(anchor)
			continue
		}
		id, ok := g.EdgeID(v, tree.Parent[v])
		if !ok {
			return fmt.Errorf("weights: tree edge {%d,%d} not in graph", v, tree.Parent[v])
		}
		d := planar.DartFrom(g, id, v)
		cfg.start[v] = int32(emb.Pos(d))
		startDart[v] = int32(d)
	}

	// Children by ascending normalized position: walk each rotation
	// clockwise from the start dart, keeping tree children.
	cfg.childOff = graph.Resize(cfg.childOff, n+1)
	cfg.childOff[0] = 0
	for v := 0; v < n; v++ {
		cfg.childOff[v+1] = cfg.childOff[v] + int32(tree.ChildCount(v))
	}
	cfg.childList = graph.Resize(cfg.childList, int(cfg.childOff[n]))
	fill := int32(0)
	for v := 0; v < n; v++ {
		if emb.FirstDart(v) < 0 {
			continue
		}
		s := int(startDart[v])
		for d := s; ; {
			w := emb.HeadOf(d)
			if tree.Parent[w] == v {
				cfg.childList[fill] = int32(w)
				fill++
			}
			d = emb.NextCW(d)
			if d == s {
				break
			}
		}
	}

	cfg.PiL = graph.Resize(cfg.PiL, n)
	cfg.PiR = graph.Resize(cfg.PiR, n)
	spanning.DFSOrders(tree, cfg.childOff, cfg.childList, cfg.PiL, cfg.PiR)
	return nil
}

// RootAnchor returns the dart of the root serving as normalized position 0:
// a dart on the outer face, at the corner where the paper's virtual root r0
// conceptually attaches.
func (cfg *Config) RootAnchor() int { return cfg.rootAnchor }

// TPos returns the normalized rotation position of dart d at its tail:
// the parent dart (or the root anchor) has position 0.
func (cfg *Config) TPos(d int) int {
	v := cfg.Emb.TailOf(d)
	deg := cfg.G.Degree(v)
	return ((cfg.Emb.Pos(d)-int(cfg.start[v]))%deg + deg) % deg
}

// edgeTPos returns the normalized position, at its endpoint x, of the
// case's own edge ec.E: the dart of the edge out of x names it, so no
// incidence scan is needed.
func (cfg *Config) edgeTPos(ec EdgeCase, x int) int {
	return cfg.TPos(planar.DartFrom(cfg.G, ec.E, x))
}

// childTPos returns the normalized position of a non-root c at its tree
// parent: the position there of the twin of c's parent dart.
func (cfg *Config) childTPos(c int) int {
	return cfg.TPos(int(cfg.startDart[c]) ^ 1)
}

// ChildOrder returns v's tree children by ascending normalized position,
// as a freshly allocated []int. Hot paths use the internal CSR view.
func (cfg *Config) ChildOrder(v int) []int {
	seg := cfg.children(v)
	out := make([]int, len(seg))
	for i, c := range seg {
		out[i] = int(c)
	}
	return out
}

// children returns the CSR view of v's tree children by ascending
// normalized position. The slice must not be modified.
func (cfg *Config) children(v int) []int32 {
	return cfg.childList[cfg.childOff[v]:cfg.childOff[v+1]]
}

// Faces returns the face structure of the embedding.
func (cfg *Config) Faces() *planar.Faces { return cfg.faces }

// FundamentalEdges returns the IDs of the non-tree edges of G
// (the T-real fundamental edges).
func (cfg *Config) FundamentalEdges() []int {
	onTree := make([]bool, cfg.G.M())
	for v, p := range cfg.Tree.Parent {
		if p >= 0 {
			if id, ok := cfg.G.EdgeID(v, p); ok {
				onTree[id] = true
			}
		}
	}
	out := make([]int, 0, cfg.G.M()-(cfg.G.N()-1))
	for e := 0; e < cfg.G.M(); e++ {
		if !onTree[e] {
			out = append(out, e)
		}
	}
	return out
}

// Canonical orients a fundamental edge's endpoints so that PiL[u] < PiL[v].
func (cfg *Config) Canonical(e int) (u, v int) {
	eu, ev := cfg.G.EndpointsOf(e)
	u, v = int(eu), int(ev)
	if cfg.PiL[u] > cfg.PiL[v] {
		u, v = v, u
	}
	return u, v
}

// GroundTruthInside classifies vertices against the fundamental cycle of
// the real edge {u,v} (the edge plus the T-path between u and v): it
// returns the set of strictly-inside vertices and the border (T-path)
// vertices, using the geometric dual-cut ground truth.
func (cfg *Config) GroundTruthInside(u, v int) (inside, border []bool, err error) {
	id, ok := cfg.G.EdgeID(u, v)
	if !ok {
		return nil, nil, fmt.Errorf("weights: {%d,%d} is not an edge", u, v)
	}
	path := cfg.Tree.TPath(u, v)
	edges := []int{id}
	for i := 0; i+1 < len(path); i++ {
		pid, ok := cfg.G.EdgeID(path[i], path[i+1])
		if !ok {
			return nil, nil, fmt.Errorf("weights: tree edge {%d,%d} missing", path[i], path[i+1])
		}
		edges = append(edges, pid)
	}
	cc, err := cfg.Emb.ClassifyCycle(edges, cfg.Outer)
	if err != nil {
		return nil, nil, err
	}
	return cc.InsideVertex, cc.OnCycle, nil
}
