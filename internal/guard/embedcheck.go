package guard

import (
	"fmt"

	"planardfs/internal/congest"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
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

// rotNode is the per-vertex checker program.
type rotNode struct {
	info    congest.NodeInfo
	deg     int
	localOK bool
	// posOf[p] is the index of Neighbors[p] in the claimed rotation, or -1.
	posOf  []int
	got    int
	accept bool
	judged bool
}

// Round implements congest.Node.
func (rn *rotNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == 0 {
		if rn.deg == 0 {
			// Isolated vertex: nothing to exchange; the local half is the
			// whole judgment (connectivity is rejected elsewhere).
			rn.accept = rn.localOK
			rn.judged = true
			return nil, true
		}
		out := make([]congest.Outgoing, rn.deg)
		for p := range out {
			out[p] = congest.Outgoing{Port: p, Msg: congest.Message{
				Kind: msgGuardLink,
				Args: []int{rn.info.ID, rn.deg, rn.posOf[p]},
			}}
		}
		rn.accept = rn.localOK
		return out, false
	}
	if rn.judged {
		return nil, true
	}
	for _, in := range recv {
		if in.Msg.Kind != msgGuardLink || in.Port < 0 || in.Port >= rn.deg {
			rn.accept = false
			continue
		}
		a := in.Msg.Args
		// Judge on arrival: the args slice points into the sender's
		// outbox, which is stable during this step phase only.
		if len(a) != 3 || a[0] != rn.info.Neighbors[in.Port] || a[2] < 0 || a[2] >= a[1] {
			rn.accept = false
		}
		rn.got++
	}
	if rn.got >= rn.deg {
		rn.judged = true
		return nil, true
	}
	return nil, false
}

// buildRotNode precomputes the local half of the check for vertex v.
func buildRotNode(info congest.NodeInfo, rot []int) *rotNode {
	rn := &rotNode{info: info, deg: len(info.Neighbors)}
	rn.posOf = make([]int, rn.deg)
	for p := range rn.posOf {
		rn.posOf[p] = -1
	}
	port := make(map[int]int, rn.deg)
	for p, w := range info.Neighbors {
		port[w] = p
	}
	rn.localOK = len(rot) == rn.deg
	for i, w := range rot {
		p, isNbr := port[w]
		if !isNbr {
			rn.localOK = false
			continue
		}
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
	return rn
}

// runRotationCheck executes the distributed rotation/endpoint check over
// the claimed rotations on nw and aggregates the verdict over tree. It
// returns the rejecting vertices (nil on acceptance) with the measured
// cost.
func runRotationCheck(nw *congest.Network, tree *spanning.Tree, rot [][]int, opt Options) (rejectors []int, rounds int, messages int64, err error) {
	n := nw.G.N()
	tr := trace.OrNop(opt.Tracer)
	sp := tr.StartSpan(trace.LayerCert, "guard.rotation")
	defer sp.End()

	nodes := make([]congest.Node, n)
	rns := make([]*rotNode, n)
	for v := 0; v < n; v++ {
		var claimed []int
		if v < len(rot) {
			claimed = rot[v]
		}
		rn := buildRotNode(nw.Info(v), claimed)
		rns[v] = rn
		nodes[v] = rn
	}
	r1, err := nw.Run(nodes, 8)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("guard: rotation exchange: %w", err)
	}
	st := nw.Stats()
	rounds = r1
	messages = st.Messages

	accepts := make([]int, n)
	for v, rn := range rns {
		if rn.accept && rn.judged {
			accepts[v] = 1
		}
	}
	part, err := shortcut.NewPartition(make([]int, n))
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := shortcut.RunPAOn(nw, tree, part, accepts, congest.OpMin)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("guard: rotation aggregation: %w", err)
	}
	rounds += res.Rounds
	messages += res.Stats.Messages
	if res.Values[0] == 1 {
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
func diagnoseRotation(g *graph.Graph, rot [][]int, v int) (Reason, string) {
	var claimed []int
	if v < len(rot) {
		claimed = rot[v]
	}
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
		if w < len(rot) {
			for _, x := range rot[w] {
				if x == v {
					found = true
					break
				}
			}
		}
		if !found {
			return ReasonEndpoint, fmt.Sprintf("edge {%d,%d}: vertex %d's rotation does not list %d (retargeted dart)", v, w, w, v)
		}
	}
	return ReasonEndpoint, fmt.Sprintf("vertex %d: a neighbour failed the link exchange", v)
}
