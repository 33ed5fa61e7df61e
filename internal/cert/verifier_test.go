package cert_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// certRun is one certification, runnable on a shared Verifier or one-shot
// (a package function, or a fresh Verifier) with the given options.
type certRun struct {
	name    string
	shared  func(vf *cert.Verifier) (*cert.Verdict, error)
	oneShot func(opt cert.Options) (*cert.Verdict, error)
	ok      bool
}

// mutate copies labels and bumps word w of vertex v.
func mutate(labels [][]int, v, w int) [][]int {
	out := make([][]int, len(labels))
	for u := range labels {
		out[u] = append([]int(nil), labels[u]...)
	}
	out[v][w]++
	return out
}

// certRuns lists accepting and mutated-label rejecting runs of every
// scheme over in.
func certRuns(t *testing.T, in *gen.Instance) []certRun {
	t.Helper()
	g := in.G
	n := g.N()
	bfs, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := spanning.DeepDFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sep := findSeparator(t, in)
	spanLabels := cert.ProveSpanningTree(bfs)
	bfsLabels := cert.ProveBFSTree(0, bfs.Parent, bfs.Depth)
	dfsLabels, err := cert.ProveDFSTree(g, 0, deep.Parent)
	if err != nil {
		t.Fatal(err)
	}
	sepLabels, err := cert.NewVerifier(g, cert.Options{}).ProveSeparator(sep)
	if err != nil {
		t.Fatal(err)
	}
	embLabels := cert.ProveEmbedding(in.Emb)

	verify := func(name string, labels [][]int, ok bool,
		method func(*cert.Verifier, [][]int) (*cert.Verdict, error)) certRun {
		return certRun{
			name:    name,
			shared:  func(vf *cert.Verifier) (*cert.Verdict, error) { return method(vf, labels) },
			oneShot: func(opt cert.Options) (*cert.Verdict, error) { return method(cert.NewVerifier(g, opt), labels) },
			ok:      ok,
		}
	}
	return []certRun{
		{"certify-spanning", func(vf *cert.Verifier) (*cert.Verdict, error) { return vf.CertifySpanningTree(bfs) },
			func(opt cert.Options) (*cert.Verdict, error) { return cert.CertifySpanningTree(g, bfs, opt) }, true},
		{"certify-bfs", func(vf *cert.Verifier) (*cert.Verdict, error) { return vf.CertifyBFSTree(0, bfs.Parent, bfs.Depth) },
			func(opt cert.Options) (*cert.Verdict, error) {
				return cert.NewVerifier(g, opt).CertifyBFSTree(0, bfs.Parent, bfs.Depth)
			}, true},
		{"certify-dfs", func(vf *cert.Verifier) (*cert.Verdict, error) { return vf.CertifyDFSTree(0, deep.Parent) },
			func(opt cert.Options) (*cert.Verdict, error) { return cert.CertifyDFSTree(g, 0, deep.Parent, opt) }, true},
		{"certify-separator", func(vf *cert.Verifier) (*cert.Verdict, error) { return vf.CertifySeparator(sep) },
			func(opt cert.Options) (*cert.Verdict, error) { return cert.CertifySeparator(g, sep, opt) }, true},
		{"certify-embedding", func(vf *cert.Verifier) (*cert.Verdict, error) { return vf.CertifyEmbedding(in.Emb) },
			func(opt cert.Options) (*cert.Verdict, error) {
				return cert.NewVerifier(g, opt).CertifyEmbedding(in.Emb)
			}, true},
		verify("bad-spanning-root", mutate(spanLabels, n-1, 0), false,
			(*cert.Verifier).VerifySpanningTree),
		verify("bad-spanning-depth", mutate(spanLabels, n/2, 2), false,
			(*cert.Verifier).VerifySpanningTree),
		verify("bad-bfs-dist", mutate(bfsLabels, n-1, 2), false,
			(*cert.Verifier).VerifyBFSTree),
		verify("bad-dfs-interval", mutate(dfsLabels, n/3, 2), false,
			(*cert.Verifier).VerifyDFSTree),
		verify("bad-separator-count", mutate(sepLabels, 0, 9), false,
			(*cert.Verifier).VerifySeparator),
		verify("bad-embedding-leader", mutate(embLabels, 1, 1), false,
			(*cert.Verifier).VerifyEmbedding),
		verify("short-labels", spanLabels[1:], false,
			(*cert.Verifier).VerifySpanningTree),
	}
}

// TestVerifierMatchesOneShot runs every scheme's accepting and rejecting
// certifications on one shared Verifier per graph, in the listed order and
// in two seeded interleavings (so runs follow rejections and other
// schemes), against one-shot certifications in the same order:
// errors, verdicts (rejectors, rounds, statistics) and the JSONL traces of
// the whole sequence must be identical.
func TestVerifierMatchesOneShot(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
	}{{"stacked", 70}, {"grid", 64}, {"wheel", 20}, {"cylinderish", 150}} {
		t.Run(fmt.Sprintf("%s-%d", tc.family, tc.n), func(t *testing.T) {
			in := instance(t, tc.family, tc.n)
			runs := certRuns(t, in)
			orders := [][]int{nil, nil, nil}
			for i := range runs {
				orders[0] = append(orders[0], i)
			}
			for s := 1; s < len(orders); s++ {
				orders[s] = rand.New(rand.NewSource(int64(s))).Perm(len(runs))
			}
			for oi, order := range orders {
				sharedRec, oneRec := trace.NewRecorder(), trace.NewRecorder()
				vf := cert.NewVerifier(in.G, cert.Options{Tracer: sharedRec})
				for _, i := range order {
					r := runs[i]
					got, gerr := r.shared(vf)
					want, werr := r.oneShot(cert.Options{Tracer: oneRec})
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("order %d, %s: shared error %v, one-shot error %v", oi, r.name, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("order %d, %s: shared verdict\n%+v\none-shot verdict\n%+v", oi, r.name, got, want)
					}
					if got.OK != r.ok {
						t.Fatalf("order %d, %s: verdict OK=%v, want %v", oi, r.name, got.OK, r.ok)
					}
				}
				var sharedJSONL, oneJSONL bytes.Buffer
				if err := sharedRec.WriteJSONL(&sharedJSONL); err != nil {
					t.Fatal(err)
				}
				if err := oneRec.WriteJSONL(&oneJSONL); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sharedJSONL.Bytes(), oneJSONL.Bytes()) {
					t.Fatalf("order %d: shared and one-shot JSONL traces differ (%d vs %d bytes)",
						oi, sharedJSONL.Len(), oneJSONL.Len())
				}
			}
		})
	}
}

// TestCertifyFoldsExtraLanes folds the embedding scheme's two lanes with
// an extra one, as the admission guard folds its degree sum: the verdict
// equals the embedding verdict certified alone, with its labels honest or
// corrupted, the extra lane comes back folded, and one lane too many is an
// error.
func TestCertifyFoldsExtraLanes(t *testing.T) {
	for _, fam := range []string{"stacked", "grid", "wheel", "cylinderish", "tree"} {
		in := instance(t, fam, 60)
		g := in.G
		n := g.N()
		ones := make([]int, n)
		for v := range ones {
			ones[v] = 1
		}
		lane := congest.FoldLane{Values: ones, Op: congest.OpSum}
		labels := cert.ProveEmbedding(in.Emb)
		for i, lbs := range [][][]int{labels, mutate(labels, n/2, 1), mutate(labels, 0, 0)} {
			vf := cert.NewVerifier(g, cert.Options{})
			got, extra, err := vf.Certify([]congest.FoldLane{lane}, vf.EmbeddingScheme(lbs))
			if err != nil {
				t.Fatal(err)
			}
			want, err := vf.VerifyEmbedding(lbs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(extra, []int{n}) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s labelling %d: verdict %+v and extra lanes %v, want %+v and [%d]", fam, i, got, extra, want, n)
			}
		}
		vf := cert.NewVerifier(g, cert.Options{})
		if _, _, err := vf.Certify([]congest.FoldLane{lane, lane}, vf.EmbeddingScheme(labels)); err == nil {
			t.Fatalf("%s: four fold lanes accepted", fam)
		}
	}
}
