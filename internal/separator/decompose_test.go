package separator

import (
	"math"
	"testing"

	"planardfs/internal/gen"
)

func TestDecomposeInvariants(t *testing.T) {
	in, err := gen.StackedTriangulation(300, 13)
	if err != nil {
		t.Fatal(err)
	}
	const leaf = 12
	d, err := Decompose(in.Emb, in.OuterDart, leaf, Find)
	if err != nil {
		t.Fatal(err)
	}
	n := in.G.N()
	// Every vertex appears exactly once among leaves + separators.
	count := make([]int, n)
	d.Walk(func(node *DecompositionNode) {
		for _, v := range node.Separator {
			count[v]++
		}
		if len(node.Children) == 0 && node.Separator == nil {
			for _, v := range node.Vertices {
				count[v]++
			}
		}
		// Children partition the piece minus the separator.
		if node.Separator != nil {
			total := len(node.Separator)
			for _, c := range node.Children {
				total += len(c.Vertices)
				// Balance: each child <= 2/3 of the piece.
				if 3*len(c.Vertices) > 2*len(node.Vertices) {
					t.Fatalf("child of size %d from piece %d", len(c.Vertices), len(node.Vertices))
				}
			}
			if total != len(node.Vertices) {
				t.Fatalf("piece %d split into %d", len(node.Vertices), total)
			}
		}
		// Leaf size respected.
		if len(node.Children) == 0 && len(node.Vertices) > leaf {
			t.Fatalf("oversized leaf: %d", len(node.Vertices))
		}
	})
	for v, c := range count {
		if c != 1 {
			t.Fatalf("vertex %d appears %d times", v, c)
		}
	}
	// Depth O(log n).
	bound := int(math.Ceil(math.Log(float64(n))/math.Log(1.5))) + 2
	if d.MaxDepth > bound {
		t.Fatalf("depth %d exceeds bound %d", d.MaxDepth, bound)
	}
	if d.Leaves == 0 || d.SeparatorMass == 0 {
		t.Fatal("stats not populated")
	}
}

func TestDecomposeErrors(t *testing.T) {
	in, err := gen.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompose(in.Emb, in.OuterDart, 0, Find); err == nil {
		t.Fatal("leaf size 0 accepted")
	}
}

func TestDecomposeWholeGraphLeaf(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(in.Emb, in.OuterDart, 100, Find)
	if err != nil {
		t.Fatal(err)
	}
	if d.Leaves != 1 || d.MaxDepth != 0 || d.SeparatorMass != 0 {
		t.Fatalf("trivial decomposition wrong: %+v", d)
	}
}
