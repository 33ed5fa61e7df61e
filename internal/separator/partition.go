package separator

import (
	"fmt"

	"planardfs/internal/planar"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// PartResult is a per-part cycle separator in original vertex IDs.
type PartResult struct {
	Part int
	// Sep is the separator with Path/EndA/EndB in original vertex IDs.
	Sep *Separator
	// SubN is the part size.
	SubN int
}

// ForPartition computes, for every part of the partition, a cycle separator
// of the induced subgraph (the partition-parallel form of Theorem 1). Each
// part must induce a connected subgraph. Embeddings of the parts are the
// restrictions of emb; per-part spanning trees are BFS trees rooted on the
// part's outer face.
func ForPartition(emb *planar.Embedding, outerDart int, part *shortcut.Partition) ([]*PartResult, error) {
	outerFace := emb.OuterFaceOf(outerDart)
	out := make([]*PartResult, 0, part.K())
	for i, vs := range part.Parts {
		sep, err := ForSubset(emb, outerFace, vs)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		out = append(out, &PartResult{Part: i, Sep: sep, SubN: len(vs)})
	}
	return out, nil
}

// ForSubset computes a cycle separator of the subgraph induced by vs
// (which must be connected), returned in original vertex IDs.
func ForSubset(emb *planar.Embedding, outerFace int, vs []int) (*Separator, error) {
	return ForSubsetTraced(emb, outerFace, vs, nil)
}

// ForSubsetTraced is ForSubset with the run recorded on tr (nil disables
// tracing): the restricted configuration carries the tracer, so the whole
// separator phase structure of the subset lands in the trace. The
// restriction's outer face is the one containing the parent outer face
// (planar.Embedding.OuterRegionDart).
func ForSubsetTraced(emb *planar.Embedding, outerFace int, vs []int, tr trace.Tracer) (*Separator, error) {
	dart, err := emb.OuterRegionDart(vs, outerFace)
	if err != nil {
		return nil, err
	}
	return ForSubsetWith(emb, dart, vs, tr, Find)
}

// FindFunc computes a cycle separator of a configuration's graph. Find is
// the Theorem 1 implementation; internal/sepengine adapts its registered
// backends to this shape so the DFS pipeline can run any engine.
type FindFunc func(cfg *weights.Config) (*Separator, error)

// ForSubsetWith computes a cycle separator of the subgraph induced by vs
// with find, in original vertex IDs. outerDart is a parent dart whose tail
// is in vs and whose face lies in the region the restriction's outer face
// should contain (planar.Embedding.RestrictTo): the subset is restricted
// around it, configured, and BFS-rooted on the restricted outer face
// exactly as in the Theorem 1 path, then find runs on the restricted
// configuration. Nothing here is sized by the parent graph, so a caller
// that knows such a dart locally — the DFS build does — pays for the
// subset only.
func ForSubsetWith(emb *planar.Embedding, outerDart int, vs []int, tr trace.Tracer, find FindFunc) (*Separator, error) {
	if len(vs) == 1 {
		// A single vertex is its own separator and find never runs, so
		// there is nothing to restrict or configure.
		v := vs[0]
		if err := emb.Graph().CheckVertex(v); err != nil {
			return nil, err
		}
		return &Separator{Path: []int{v}, EndA: v, EndB: v, Phase: PhaseTree}, nil
	}
	res, err := emb.RestrictTo(vs, outerDart)
	if err != nil {
		return nil, err
	}
	if !res.G.Connected() {
		return nil, fmt.Errorf("separator: subset induces a disconnected subgraph")
	}
	// Root on the restricted outer face.
	fs := res.Emb.TraceFaces()
	root := fs.FaceVertices(int(fs.FaceOf[res.OuterDart]))[0]
	tree, err := spanning.BFSTree(res.G, root)
	if err != nil {
		return nil, err
	}
	cfg, err := weights.NewConfig(res.G, res.Emb, res.OuterDart, tree)
	if err != nil {
		return nil, err
	}
	cfg.Tracer = tr
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
