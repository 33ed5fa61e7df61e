package guard

import (
	"reflect"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
)

// steppedBall is a ball program that records the vertices the engine
// steps; NextWake is promoted, so it stays a Waker.
type steppedBall struct {
	*ballVertex
	stepped []bool
}

func (s steppedBall) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	s.stepped[s.id] = true
	return s.ballVertex.Round(round, recv)
}

// probeOutcome is everything a ball probe reports.
type probeOutcome struct {
	rounds int
	stats  congest.Stats
	judged bool
	nS     int
	mS2    int
}

// TestSeededRunMatchesFullStart holds the seeded start to the all-vertex
// one: on every family, each ball probe run from its center alone gives
// the rounds, messages, words, per-round messages, largest edge load and
// center measurement of the same probe started at every vertex, and steps
// only vertices within distance 2 of the center (the members and the
// neighbours their grows reach).
func TestSeededRunMatchesFullStart(t *testing.T) {
	for _, fam := range gen.Families {
		for _, n := range []int{30, 150} {
			in, err := gen.ByName(fam, n, 2)
			if err != nil {
				t.Fatal(err)
			}
			g := in.G
			nw := congest.New(g)
			bp := newBallProgram(nw)
			stepped := make([]bool, g.N())
			for v := range bp.nodes {
				bp.nodes[v] = steppedBall{ballVertex: &bp.verts[v], stepped: stepped}
			}
			outcome := func(c, rounds int) probeOutcome {
				cn := bp.stateOf(c)
				return probeOutcome{rounds: rounds, stats: nw.Stats(), judged: cn.judged, nS: cn.nS, mS2: cn.mS2}
			}
			every := make([]int, g.N())
			for v := range every {
				every[v] = v
			}
			for c := 0; c < g.N(); c++ {
				// The all-vertex start of the probe bp.run makes.
				bp.begin(c)
				r, err := nw.Run(bp.nodes, 2*ballRadius+16)
				if err != nil {
					t.Fatalf("%s n=%d center %d: %v", fam, n, c, err)
				}
				full := outcome(c, r)
				clear(stepped)
				_, _, r, _, err = bp.run(nw, c)
				if err != nil {
					t.Fatalf("%s n=%d center %d: %v", fam, n, c, err)
				}
				seeded := outcome(c, r)
				if !reflect.DeepEqual(seeded, full) {
					t.Fatalf("%s n=%d center %d: seeded probe %+v, full start %+v", fam, n, c, seeded, full)
				}
				if !seeded.judged {
					t.Fatalf("%s n=%d center %d: the probe did not converge", fam, n, c)
				}
				dist := g.BFS(c).Dist
				for v, s := range stepped {
					if s && (dist[v] < 0 || dist[v] > 2) {
						t.Fatalf("%s n=%d center %d: seeded probe stepped vertex %d at distance %d", fam, n, c, v, dist[v])
					}
				}
			}
		}
	}
}
