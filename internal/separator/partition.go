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
// the region of outerDart's face (planar.Embedding.OuterRegionDart).
func ForPartition(emb *planar.Embedding, outerDart int, part *shortcut.Partition, find FindFunc) ([]*Separator, error) {
	if n := emb.Graph().N(); len(part.PartOf) != n {
		return nil, fmt.Errorf("separator: partition of %d vertices for %d vertices", len(part.PartOf), n)
	}
	out := make([]*Separator, 0, part.K())
	rs := planar.NewRestricter(emb)
	for i, vs := range part.Parts {
		dart, err := emb.OuterRegionDart(vs, outerDart)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		sep, err := ForSubset(rs, dart, vs, find)
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

// ForSubset computes a cycle separator of the subgraph induced by vs
// (which must be connected) with find, in original vertex IDs. rs
// restricts the parent embedding, and outerDart is a parent dart whose
// tail is in vs and whose face lies in the region the restriction's outer
// face should contain (planar.Restricter.Restrict): the subset is
// restricted around it, configured, and BFS-rooted on the restricted
// outer face exactly as in the Theorem 1 path, then find runs on the
// restricted configuration.
// Nothing here is sized by the parent graph, so a caller that knows such
// a dart locally and reuses one Restricter — the DFS build does — pays
// for the subset only.
func ForSubset(rs *planar.Restricter, outerDart int, vs []int, find FindFunc) (*Separator, error) {
	switch len(vs) {
	case 0:
		return nil, fmt.Errorf("separator: empty subset")
	case 1:
		// A single vertex is its own separator and find never runs, so
		// there is nothing to restrict or configure.
		v := vs[0]
		if err := rs.Embedding().Graph().CheckVertex(v); err != nil {
			return nil, err
		}
		return &Separator{Path: []int{v}, EndA: v, EndB: v, Phase: PhaseTree}, nil
	}
	res, err := rs.Restrict(vs, outerDart)
	if err != nil {
		return nil, err
	}
	// Two or more vertices without an edge are disconnected, and have no
	// outer dart to root on.
	if res.G.M() == 0 {
		return nil, errDisconnected
	}
	// Root on the restricted outer face; the BFS is also the connectivity
	// check, since it fails on any unreachable vertex.
	tree, err := spanning.BFSTree(res.G, res.Emb.FaceRoot(res.OuterDart))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errDisconnected, err)
	}
	cfg, err := weights.NewConfig(res.G, res.Emb, res.OuterDart, tree)
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
