package separator

import (
	"errors"
	"fmt"

	"planardfs/internal/planar"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// ForPartition computes, for every part of the partition, a cycle separator
// of the induced subgraph with find (the partition-parallel form of
// Theorem 1), in original vertex IDs: the i-th separator is part i's. The
// partition must cover emb's graph, and each part must induce a connected
// subgraph. Embeddings of the parts are the restrictions of emb; per-part
// spanning trees are BFS trees rooted on the part's outer face, the one in
// the region of outerDart's face (planar.Embedding.OuterRegionDart). One
// workspace splits the partition once and builds every part in turn.
func ForPartition(emb *planar.Embedding, outerDart int, part *shortcut.Partition, find FindFunc) ([]*Separator, error) {
	if n := emb.Graph().N(); len(part.PartOf) != n {
		return nil, fmt.Errorf("separator: partition of %d vertices for %d vertices", len(part.PartOf), n)
	}
	out := make([]*Separator, 0, part.K())
	ws := NewWorkspace(emb)
	if err := ws.Split(part.Parts); err != nil {
		return nil, err
	}
	for i, vs := range part.Parts {
		dart, err := emb.OuterRegionDart(vs, outerDart)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		sep, err := ForSubset(ws, i, dart, find)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		out = append(out, sep)
	}
	return out, nil
}

// errDisconnected reports a subset that induces a disconnected subgraph.
var errDisconnected = errors.New("separator: subset induces a disconnected subgraph")

// FindFunc computes a cycle separator of a configuration's graph. Find is
// the raw Theorem 1 implementation; sepengine.Finder adapts a registered
// engine to this shape, so a region caller can run any engine with its
// output validated.
type FindFunc func(cfg *weights.Config) (*Separator, error)

// Workspace builds the restricted configuration of one part of a split
// at a time, in storage it reuses: the restriction (planar.Restricter,
// its induced graph and sub-embedding), the BFS tree rooted on the
// restricted outer face and the weights.Config over them are rebuilt in
// place for every part, so once it has grown to the largest part it has
// seen, a part costs its own size and allocates nothing. The DFS build
// owns one per run and splits each phase's components once; ForPartition
// splits its partition once, and Decompose splits each piece. A
// Workspace is not safe for concurrent use; the embedding it reads may be
// shared.
type Workspace struct {
	rs   *planar.Restricter
	tree spanning.Tree
	cfg  weights.Config
}

// NewWorkspace returns a Workspace over emb.
func NewWorkspace(emb *planar.Embedding) *Workspace {
	return &Workspace{rs: planar.NewRestricter(emb)}
}

// Split sets the parts later Configure and ForSubset calls build:
// disjoint vertex sets of the parent graph, which must not change before
// the next Split (planar.Restricter.Split).
func (w *Workspace) Split(parts [][]int) error { return w.rs.Split(parts) }

// Configure builds part i of the last Split in the workspace: its
// restriction around outerDart (planar.Restricter.Restrict), the BFS tree
// rooted on the restricted outer face, and the configuration of the two,
// exactly as the Theorem 1 path configures a whole instance. Both results
// live in the workspace and are valid until the next Configure or Split.
// The part must induce a connected subgraph with at least one edge.
//
//planarvet:noalloc TestWorkspaceConfigureZeroAlloc
func (w *Workspace) Configure(i, outerDart int) (*planar.Restriction, *weights.Config, error) {
	res, err := w.rs.Restrict(i, outerDart)
	if err != nil {
		return nil, nil, err
	}
	// Two or more vertices without an edge are disconnected, and have no
	// outer dart to root on.
	if res.G.M() == 0 {
		return nil, nil, errDisconnected
	}
	// Root on the restricted outer face; the BFS is also the connectivity
	// check, since it fails on any unreachable vertex.
	if err := w.tree.BuildBFS(res.G, res.Emb.FaceRoot(res.OuterDart)); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errDisconnected, err) //planarvet:allocok abort path: a disconnected part ends the call
	}
	if err := w.cfg.Reset(res.G, res.Emb, res.OuterDart, &w.tree); err != nil {
		return nil, nil, err
	}
	return res, &w.cfg, nil
}

// ForSubset computes a cycle separator of part i of ws's last Split, which
// must induce a connected subgraph, with find, in original vertex IDs.
// outerDart is a parent dart whose tail is in the part and whose face
// lies in the region the restriction's outer face should contain
// (planar.Restricter.Restrict): the part is restricted around it,
// configured, and BFS-rooted on the restricted outer face exactly as in
// the Theorem 1 path (Workspace.Configure), then find runs on the
// restricted configuration. The separator is mapped to parent ids before
// ForSubset returns, so nothing it returns aliases the workspace.
// Nothing here is sized by the parent graph, so a caller that knows such
// a dart locally and reuses one Workspace — the DFS build does — pays
// for the part only.
func ForSubset(ws *Workspace, i, outerDart int, find FindFunc) (*Separator, error) {
	vs := ws.rs.Part(i)
	switch len(vs) {
	case 0:
		return nil, fmt.Errorf("separator: empty subset")
	case 1:
		// A single vertex is its own separator and find never runs, so
		// there is nothing to restrict or configure.
		v := vs[0]
		return &Separator{Path: []int{v}, EndA: v, EndB: v, Phase: PhaseTree}, nil
	}
	res, cfg, err := ws.Configure(i, outerDart)
	if err != nil {
		return nil, err
	}
	sep, err := find(cfg)
	if err != nil {
		return nil, err
	}
	// Map back to original IDs.
	mapped := &Separator{
		Path:  make([]int, len(sep.Path)),
		EndA:  res.Orig[sep.EndA],
		EndB:  res.Orig[sep.EndB],
		Phase: sep.Phase,
	}
	for i, v := range sep.Path {
		mapped.Path[i] = res.Orig[v]
	}
	return mapped, nil
}
