package congest

import (
	"math/rand"
	"slices"
	"testing"
)

// TestStepSetMatchesSort holds the two-level bitset step set to the sorted
// step list it replaced: over seeded queue patterns, draining the set must
// return exactly the added vertices sorted with duplicates removed, and
// leave the set empty for the next round. The sizes straddle the word
// (64) and summary-word (4,096) boundaries. Each size runs a dense round
// (every vertex with probability 1/2, many added twice), sparse rounds of
// a few vertices with repeats, a round of the word and summary boundary
// vertices added in descending order (as a wake-up after a delivery
// would add them), and an empty round.
func TestStepSetMatchesSort(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 70000} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := newStepSet(n)
		dst := make([]int32, 0, n)

		var rounds [][]int
		dense := []int{}
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				dense = append(dense, v)
			}
		}
		for i := 0; i < n/4; i++ {
			dense = append(dense, rng.Intn(n))
		}
		rounds = append(rounds, dense)
		for r := 0; r < 20; r++ {
			sparse := make([]int, 1+rng.Intn(8))
			for i := range sparse {
				sparse[i] = rng.Intn(n)
			}
			sparse = append(sparse, sparse[0])
			rounds = append(rounds, sparse)
		}
		edges := []int{}
		for _, v := range []int{n - 1, 8191, 4097, 4096, 4095, 4032, 65, 64, 63, 1, 0} {
			if v < n {
				edges = append(edges, v, v)
			}
		}
		rounds = append(rounds, edges, nil, dense)

		for r, added := range rounds {
			for _, v := range added {
				s.add(v)
			}
			dst = s.drain(dst[:0])
			want := make([]int32, len(added))
			for i, v := range added {
				want[i] = int32(v)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(dst, want) {
				t.Fatalf("n=%d round %d: drained %d vertices %.40v, want %d %.40v", n, r, len(dst), dst, len(want), want)
			}
			if cap(dst) != n {
				t.Fatalf("n=%d round %d: drain grew the destination to capacity %d", n, r, cap(dst))
			}
			for i, w := range s.words {
				if w != 0 {
					t.Fatalf("n=%d round %d: word %d still set after drain", n, r, i)
				}
			}
			for i, w := range s.summary {
				if w != 0 {
					t.Fatalf("n=%d round %d: summary word %d still set after drain", n, r, i)
				}
			}
		}
	}
}
