package guard

import (
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// The distributed embedding-consistency checker.
//
// Input model: every vertex holds its claimed clockwise rotation as a
// neighbour list (the wire form of an embedding — what an untrusted
// submission actually carries). The check has a local half and an exchange
// half:
//
//   - locally, a vertex verifies its rotation is a permutation of its
//     neighbour set: right length, no duplicate entries, no non-neighbour
//     entries (a retargeted dart), no missing neighbour. This is rotation
//     well-formedness — together with the simple-graph edge list it pins
//     down the dart involution (each edge contributes exactly one dart at
//     each endpoint).
//   - in one exchange round, every vertex sends on each port the triple
//     [senderID, senderDeg, pos], where pos is the receiver's index in the
//     sender's claimed rotation (-1 when absent). The receiver checks the
//     sender identifies itself as the vertex the port leads to (the two
//     endpoints agree which link they share — the face-trace handshake:
//     FaceNext pivots through exactly these (twin dart, rotation position)
//     pairs) and that 0 <= pos < senderDeg. A dart retargeted away from
//     this edge at the far end surfaces here as pos = -1 even when the far
//     vertex's own rotation still looks locally consistent.
//
// One message per edge per direction, 3 argument words plus the kind word
// (within the default 4-word CONGEST budget), judged on arrival: the
// program is purely message-driven and completes in O(1) rounds. Accept bits are
// folded into a global verdict with one single-part OpMin aggregation,
// exactly like the internal/cert verifiers.

// msgGuardLink tags the one message kind of the exchange:
// [senderID, senderDeg, posOfReceiverInSenderRotation].
const msgGuardLink = 1

// rotNode is the per-vertex checker program. Every vertex's neighbour row,
// rotation positions, outbox and message arguments are carved from flat
// arrays shared by the run.
type rotNode struct {
	nb      []int // nb[p] is the neighbour on port p
	localOK bool
	// posOf[p] is the index of nb[p] in the claimed rotation, or -1.
	posOf  []int
	out    []congest.Outgoing // the round-0 link messages, one per port
	got    int
	accept bool
	judged bool
}

// Round implements congest.Node.
func (rn *rotNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	deg := len(rn.nb)
	if round == 0 {
		rn.accept = rn.localOK
		if deg == 0 {
			// Isolated vertex: nothing to exchange; the local half is the
			// whole judgment (connectivity is rejected elsewhere).
			rn.judged = true
			return nil, true
		}
		return rn.out, false
	}
	if rn.judged {
		return nil, true
	}
	for _, in := range recv {
		if in.Msg.Kind != msgGuardLink || in.Port < 0 || in.Port >= deg {
			rn.accept = false
			continue
		}
		a := in.Msg.Args
		// Judge on arrival: the args slice points into the sender's
		// outbox, which is stable during this step phase only.
		if len(a) != 3 || a[0] != rn.nb[in.Port] || a[2] < 0 || a[2] >= a[1] {
			rn.accept = false
		}
		rn.got++
	}
	if rn.got >= deg {
		rn.judged = true
		return nil, true
	}
	return nil, false
}

// checkRotation precomputes the local half of the check from the claimed
// rotation: it fills posOf and sets localOK. portOf is a work array with one
// zero slot per vertex, which it uses to map a neighbour to its port plus
// one and leaves zeroed again.
func (rn *rotNode) checkRotation(rot []int, portOf []int) {
	for p, w := range rn.nb {
		portOf[w] = p + 1
	}
	for p := range rn.posOf {
		rn.posOf[p] = -1
	}
	rn.localOK = len(rot) == len(rn.nb)
	for i, w := range rot {
		if w < 0 || w >= len(portOf) || portOf[w] == 0 {
			rn.localOK = false // non-neighbour entry
			continue
		}
		p := portOf[w] - 1
		if rn.posOf[p] != -1 {
			rn.localOK = false // duplicate entry (simple graph: one dart per neighbour)
			continue
		}
		rn.posOf[p] = i
	}
	if rn.localOK {
		for _, pos := range rn.posOf {
			if pos < 0 {
				rn.localOK = false // neighbour missing from the rotation
				break
			}
		}
	}
	for _, w := range rn.nb {
		portOf[w] = 0
	}
}

// runRotationCheck executes the distributed rotation/endpoint check over
// the claimed rotations on vf's network and aggregates the verdict over
// its BFS tree. It returns the rejecting vertices (nil on acceptance) with
// the measured cost.
func runRotationCheck(vf *cert.Verifier, rot *claim, opt Options) (rejectors []int, rounds int, messages int64, err error) {
	nw := vf.Network()
	n := nw.G.N()
	ports := 2 * nw.G.M()
	tr := trace.OrNop(opt.Tracer)
	sp := tr.StartSpan(trace.LayerCert, "guard.rotation")
	defer sp.End()

	rns := make([]rotNode, n)
	nodes := make([]congest.Node, n)
	posOf := make([]int, ports)
	out := make([]congest.Outgoing, ports)
	args := make([]int, 3*ports)
	portOf := make([]int, n)
	base := 0
	for v := range rns {
		claimed := rot.row(v)
		nb := vf.Neighbors(v)
		end := base + len(nb)
		rn := &rns[v]
		*rn = rotNode{nb: nb, posOf: posOf[base:end:end], out: out[base:end:end]}
		rn.checkRotation(claimed, portOf)
		for p := range rn.out {
			a := args[3*(base+p) : 3*(base+p)+3 : 3*(base+p)+3]
			a[0], a[1], a[2] = v, len(nb), rn.posOf[p]
			rn.out[p] = congest.Outgoing{Port: p, Msg: congest.Message{Kind: msgGuardLink, Args: a}}
		}
		nodes[v] = rn
		base = end
	}
	r1, err := nw.Run(nodes, 8)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("guard: rotation exchange: %w", err)
	}
	rounds = r1
	messages = nw.Stats().Messages

	accepts := make([]int, n)
	for v := range rns {
		if rns[v].accept && rns[v].judged {
			accepts[v] = 1
		}
	}
	agg, r2, err := vf.Aggregate(accepts, congest.OpMin)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("guard: rotation aggregation: %w", err)
	}
	rounds += r2
	messages += nw.Stats().Messages
	if agg == 1 {
		sp.SetAttr("ok", 1)
		return nil, rounds, messages, nil
	}
	for v, a := range accepts {
		if a == 0 {
			rejectors = append(rejectors, v)
		}
	}
	sp.SetAttr("ok", 0)
	sp.SetAttr("rejectors", int64(len(rejectors)))
	return rejectors, rounds, messages, nil
}

// diagnoseRotation recomputes the first rejecting vertex's violation
// centrally, producing the human-readable witness detail. It mirrors the
// distributed judges exactly and falls back to the endpoint ruling when
// the vertex's own rotation is locally fine (the far end faulted).
func diagnoseRotation(g *graph.Graph, rot *claim, v int) (Reason, string) {
	// A copy: reading the neighbours' rows below reuses an embedding's row.
	claimed := append([]int(nil), rot.row(v)...)
	if len(claimed) != g.Degree(v) {
		return ReasonRotation, fmt.Sprintf("vertex %d: rotation has %d entries for degree %d", v, len(claimed), g.Degree(v))
	}
	seen := make(map[int]bool, len(claimed))
	for i, w := range claimed {
		if _, isNbr := g.EdgeID(v, w); !isNbr {
			return ReasonRotation, fmt.Sprintf("vertex %d: rotation entry %d lists non-neighbour %d", v, i, w)
		}
		if seen[w] {
			return ReasonRotation, fmt.Sprintf("vertex %d: rotation lists neighbour %d twice", v, w)
		}
		seen[w] = true
	}
	for _, w := range g.Neighbors(v) {
		if !seen[w] {
			return ReasonRotation, fmt.Sprintf("vertex %d: neighbour %d missing from rotation", v, w)
		}
	}
	// The vertex's own rotation is a valid permutation: it rejected
	// because a neighbour's message failed the link check.
	for _, w := range g.Neighbors(v) {
		found := false
		for _, x := range rot.row(w) {
			if x == v {
				found = true
				break
			}
		}
		if !found {
			return ReasonEndpoint, fmt.Sprintf("edge {%d,%d}: vertex %d's rotation does not list %d (retargeted dart)", v, w, w, v)
		}
	}
	return ReasonEndpoint, fmt.Sprintf("vertex %d: a neighbour failed the link exchange", v)
}
