package chaos

import (
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/graph"
)

// The in-band fault report: after a supervised run ends, the root floods
// its terminal report over the (fault-free) network so every node learns
// how the run ended — the form a real deployment uses to trigger failover
// or alerting from inside the system rather than at the operator console.
// ReportPayload implements congest.Payload, so the planarvet congestmsg
// analyzer enforces that the report stays a fixed number of O(log n)-bit
// words.

// msgChaosReport tags fault-report flood messages. The constant is local
// to the report program's network; it cannot collide with other programs'
// kinds.
const msgChaosReport = 64

// ReportPayload is the wire body of a fault report: the terminal outcome,
// the attempt count, and the fired-fault tally of a supervised run.
type ReportPayload struct {
	Outcome       int
	Attempts      int
	Drops         int
	Corruptions   int
	Stalls        int
	LinkDownDrops int
	Crashes       int
	Structural    int
}

// AppendWords implements congest.Payload.
func (p *ReportPayload) AppendWords(dst []int) []int {
	return append(dst, p.Outcome, p.Attempts,
		p.Drops, p.Corruptions, p.Stalls, p.LinkDownDrops, p.Crashes, p.Structural)
}

// LoadWords implements congest.Payload.
func (p *ReportPayload) LoadWords(words []int) {
	p.Outcome, p.Attempts = words[0], words[1]
	p.Drops, p.Corruptions, p.Stalls = words[2], words[3], words[4]
	p.LinkDownDrops, p.Crashes, p.Structural = words[5], words[6], words[7]
}

// reportWords is the payload size; the wire message adds one kind word.
const reportWords = 8

// WirePayload flattens a report for the in-band flood.
func (r *Report) WirePayload() *ReportPayload {
	return &ReportPayload{
		Outcome:       int(r.Outcome),
		Attempts:      len(r.Attempts),
		Drops:         int(r.Faults.Drops),
		Corruptions:   int(r.Faults.Corruptions),
		Stalls:        int(r.Faults.Stalls),
		LinkDownDrops: int(r.Faults.LinkDownDrops),
		Crashes:       int(r.Faults.Crashes),
		Structural:    int(r.Faults.Structural),
	}
}

// reportNode floods the report once: the root sends it on every port in
// round 0, every other node forwards it on its remaining ports the round
// after it first hears it.
type reportNode struct {
	deg     int
	isRoot  bool
	gotPort int // port the report arrived on (-1 until heard)
	heard   bool
	sent    bool
	Report  ReportPayload
}

// Round implements congest.Node.
func (rn *reportNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	for _, in := range recv {
		if in.Msg.Kind == msgChaosReport && !rn.heard {
			congest.Unpack(in.Msg, &rn.Report)
			rn.heard = true
			rn.gotPort = in.Port
		}
	}
	if rn.isRoot && !rn.sent {
		rn.sent = true
		rn.heard = true
		out := make([]congest.Outgoing, 0, rn.deg)
		msg := congest.Pack(msgChaosReport, &rn.Report)
		for p := 0; p < rn.deg; p++ {
			out = append(out, congest.Outgoing{Port: p, Msg: msg})
		}
		return out, true
	}
	if rn.heard && !rn.sent {
		rn.sent = true
		out := make([]congest.Outgoing, 0, rn.deg)
		msg := congest.Pack(msgChaosReport, &rn.Report)
		for p := 0; p < rn.deg; p++ {
			if p != rn.gotPort {
				out = append(out, congest.Outgoing{Port: p, Msg: msg})
			}
		}
		return out, true
	}
	return nil, rn.sent
}

// BroadcastReport floods rep from root over a fault-free network on g and
// returns the per-vertex received payloads, so callers (and tests) can
// check every node learned the outcome. The flood takes O(diameter)
// rounds with one reportWords+1-word message per edge direction.
func BroadcastReport(g *graph.Graph, root int, rep *Report, opt cert.Options) ([]ReportPayload, error) {
	nw := stageNetwork(g, opt)
	if nw.MaxWords < reportWords+1 {
		nw.MaxWords = reportWords + 1
	}
	nodes := make([]congest.Node, g.N())
	for v := 0; v < g.N(); v++ {
		nodes[v] = &reportNode{deg: g.Degree(v), isRoot: v == root, gotPort: -1}
	}
	rn := nodes[root].(*reportNode)
	rn.Report = *rep.WirePayload()
	if _, err := nw.Run(nodes, 2*g.N()+16); err != nil {
		return nil, err
	}
	out := make([]ReportPayload, g.N())
	for v := range out {
		n := nodes[v].(*reportNode)
		if !n.heard {
			return nil, fmt.Errorf("chaos: vertex %d never received the fault report", v)
		}
		out[v] = n.Report
	}
	return out, nil
}
