package congest_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// goldenOut is everything one golden row observes of its runs.
type goldenOut struct {
	stats   []byte // rounds, errors and Stats of every run, in order
	results []byte // per-node program outputs or verdicts
	counts  []byte // chaos fired-fault tallies ("" when nothing was injected)
	rec     *trace.Recorder
}

// stat records one run's round count, error and Stats.
func (o *goldenOut) stat(rounds int, err error, st congest.Stats) {
	o.stats = fmt.Appendf(o.stats, "rounds=%d err=%v stats=%s\n", rounds, err, mustJSON(st))
}

// result records one program output.
func (o *goldenOut) result(v any) {
	o.results = append(o.results, mustJSON(v)...)
	o.results = append(o.results, '\n')
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// digest renders the row's observations as short sha256 prefixes, one per
// component, so a mismatch names what diverged.
func (o *goldenOut) digest(t *testing.T) string {
	var jsonl, chrome bytes.Buffer
	if err := o.rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := o.rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	h := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:8])
	}
	return fmt.Sprintf("stats=%s results=%s jsonl=%s chrome=%s counts=%s",
		h(o.stats), h(o.results), h(jsonl.Bytes()), h(chrome.Bytes()), h(o.counts))
}

// TestScheduleGolden pins every observable output of the CONGEST round
// schedule — Stats (with the per-round message histogram), per-node
// results, JSONL and Chrome trace bytes, and chaos fired-fault counts —
// for every built-in node program, the guard's ball probe and rotation
// check, the certification label exchange, and injected runs that fire
// every fault kind. The digests were recorded on the three-schedule engine
// this one replaced (the chaos/pa-all-kinds row on the map-based PANode
// before its flat rewrite), so a mismatch is a change in observable
// behaviour (rounds, inbox order, stats, trace output), never a digest to
// refresh silently. The guard/accept results digest was re-recorded when
// the guard verdict began counting the Euler stage's prover charge (euler
// check 20 → 596 rounds, verdict total 460 → 1,036); its traces did not
// change. The whole guard/accept row was re-recorded again when the
// guard's ball radius became the constant 1: the row had probed radius-2
// balls, an option the guard no longer has, so its ball rounds, verdict
// and traces changed with the radius. The cert/*, guard/* and
// chaos/awerbuch-recovery rows were re-recorded when every verdict and
// guard sum began folding with a convergecast and broadcast (2·depth+1
// rounds, 2(n−1) messages) instead of a single-part part-wise
// aggregation, and the guard began folding once; their verdicts keep
// their OK, rejectors, label words and prover rounds. The programs/* rows
// were re-recorded when the fold replaced the convergecast and broadcast
// programs in them; without the fold's entry they equal the earlier rows
// with those two programs' entries removed.
func TestScheduleGolden(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, o *goldenOut)
		want string
	}{
		{"programs/sparse", func(t *testing.T, o *goldenOut) { runPrograms(t, o, "sparse", 120, 3) },
			"stats=474805a6bd0ed80c results=399979f2349ea209 jsonl=5ea1df0b62f6a1b4 chrome=def550aa3c583375 counts=e3b0c44298fc1c14"},
		{"programs/stacked", func(t *testing.T, o *goldenOut) { runPrograms(t, o, "stacked", 150, 5) },
			"stats=36eec15e863c32e2 results=c93d9aa5e2022aba jsonl=49fb15531ce80584 chrome=6d9cfe8994efc3f4 counts=e3b0c44298fc1c14"},
		{"boruvka/stacked", func(t *testing.T, o *goldenOut) { runBoruvka(t, o, "stacked", 200, 8) },
			"stats=e1e5aa6bc5cc94b4 results=cf606e9a6c7e4e4b jsonl=e62b3919ec997c48 chrome=1119ca032113e486 counts=e3b0c44298fc1c14"},
		{"boruvka/grid", func(t *testing.T, o *goldenOut) { runBoruvka(t, o, "grid", 100, 1) },
			"stats=e152d46cdc781941 results=64194e50d8509639 jsonl=b82bba27fa650d38 chrome=3e692e65440dc835 counts=e3b0c44298fc1c14"},
		{"chatter/sparse", func(t *testing.T, o *goldenOut) { runChatter(t, o, "sparse", 109, 1) },
			"stats=4a64780fce93219d results=98b0eef66b0f6a26 jsonl=f871ea92ac129ec9 chrome=d01b9a4486dc947c counts=e3b0c44298fc1c14"},
		{"chatter/stacked", func(t *testing.T, o *goldenOut) { runChatter(t, o, "stacked", 122, 2) },
			"stats=42ed1ac784d93a3e results=1de35d20295aaa50 jsonl=435e7348be91ddd4 chrome=c24a66ae3273cdba counts=e3b0c44298fc1c14"},
		{"guard/accept", runGuardAccept, "stats=e3b0c44298fc1c14 results=0ff8999e144ffd7a jsonl=d8bbb843e3aae0c6 chrome=115230d4a6eea09c counts=e3b0c44298fc1c14"},
		{"guard/dense-region", runGuardDense, "stats=e3b0c44298fc1c14 results=a3ff5a244998f310 jsonl=d5c2e982a2a6fb1c chrome=8d917a57ed9aaaae counts=e3b0c44298fc1c14"},
		{"cert/separator/grid", func(t *testing.T, o *goldenOut) { runCertSeparator(t, o, "grid") },
			"stats=e3b0c44298fc1c14 results=c10ec93e7dd31d75 jsonl=097c861574b10b95 chrome=91843a5239287733 counts=e3b0c44298fc1c14"},
		{"cert/separator/stacked", func(t *testing.T, o *goldenOut) { runCertSeparator(t, o, "stacked") },
			"stats=e3b0c44298fc1c14 results=5953e91d8a2a4810 jsonl=8ec8adf62e10cc11 chrome=e81e40f8e3cb3451 counts=e3b0c44298fc1c14"},
		{"cert/separator/tree", func(t *testing.T, o *goldenOut) { runCertSeparator(t, o, "tree") },
			"stats=e3b0c44298fc1c14 results=9d908ff420f63d0f jsonl=af3aae4867c14db3 chrome=d7c598c301008247 counts=e3b0c44298fc1c14"},
		{"cert/schemes", runCertSchemes, "stats=e3b0c44298fc1c14 results=42ab636fc3914c9e jsonl=e43eacccdcbf2065 chrome=7f2b2b821503ad2a counts=e3b0c44298fc1c14"},
		{"chaos/bfs-all-kinds", func(t *testing.T, o *goldenOut) {
			runInjected(t, o, "bfs", "stacked", 90, 1, 3, []chaos.Kind{chaos.Drop, chaos.Corrupt, chaos.Stall, chaos.LinkDown, chaos.Crash})
		}, "stats=efa10b7d1f34946d results=727f632fdecb575c jsonl=063ea182fc527466 chrome=a53526276d52c487 counts=3fefc462a517a55e"},
		{"chaos/bfs-stalls", func(t *testing.T, o *goldenOut) {
			runInjected(t, o, "bfs", "grid", 64, 2, 1, []chaos.Kind{chaos.Stall, chaos.Stall, chaos.Stall})
		}, "stats=cdb5cc2b575f85d6 results=f0899b14a25ef37d jsonl=1670fb410ef6538d chrome=30066c7f132ff498 counts=3918d278b36ce326"},
		{"chaos/awerbuch-all-kinds", func(t *testing.T, o *goldenOut) {
			runInjected(t, o, "awerbuch", "stacked", 80, 3, 20, []chaos.Kind{chaos.Corrupt, chaos.Drop, chaos.Stall, chaos.LinkDown, chaos.Crash})
		}, "stats=524fbb5da81e4b40 results=cf4dc6d0ff58db95 jsonl=82b0810b23d7b7d0 chrome=5217ea64a53c7e6f counts=f2ecad427680a923"},
		{"chaos/awerbuch-token-stall", func(t *testing.T, o *goldenOut) {
			runInjected(t, o, "awerbuch", "grid", 64, 5, 10, []chaos.Kind{chaos.Corrupt, chaos.Stall})
		}, "stats=f338d5ec6ef3798c results=1875f68c79bf77af jsonl=105a8aa35be8a550 chrome=839728474f7d475c counts=1258d006706dc84c"},
		{"chaos/awerbuch-crash", func(t *testing.T, o *goldenOut) {
			runInjected(t, o, "awerbuch", "sparse", 60, 4, 30, []chaos.Kind{chaos.Crash})
		}, "stats=da305d785a03fada results=0d253a7e0aac6665 jsonl=e8fa242fcb714a40 chrome=512b56a3484d269a counts=ceba9cad73cf2300"},
		{"chaos/pa-all-kinds", func(t *testing.T, o *goldenOut) {
			runInjected(t, o, "pa", "stacked", 90, 1, 2, []chaos.Kind{chaos.Drop, chaos.Corrupt, chaos.Stall})
		}, "stats=31106dd0e0703abd results=b4a0152bbdb821da jsonl=dde95eaa286fce16 chrome=430a13aca2dec927 counts=0e31bb53d7712cd6"},
		{"chaos/awerbuch-recovery", runAwerbuchRecovery, "stats=e3b0c44298fc1c14 results=eedcd7b948566658 jsonl=b749d40ad21023c8 chrome=761ba6e0f8929cd4 counts=ba59d4def0d01cd5"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := &goldenOut{rec: trace.NewRecorder()}
			row.run(t, o)
			if got := o.digest(t); got != row.want {
				t.Fatalf("digest mismatch\n got: %s\nwant: %s", got, row.want)
			}
		})
	}
}

func goldenInstance(t *testing.T, family string, n int, seed int64) *gen.Instance {
	t.Helper()
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// runPrograms runs every message-driven built-in program on one graph,
// all traced into the row's recorder.
func runPrograms(t *testing.T, o *goldenOut, family string, n int, seed int64) {
	g := goldenInstance(t, family, n, seed).G
	// Tree inputs come from the centralized BFS, independent of the engine.
	parent := g.BFS(0).Parent
	value := make([]int, g.N())
	partOf := make([]int, g.N())
	for v := range value {
		value[v] = (v*2654435761 + int(seed)) % 1000
		partOf[v] = v % 5
	}
	programs := []struct {
		name    string
		build   func(nw *congest.Network) []congest.Node
		extract func(nd congest.Node) any
	}{
		{"bfs", func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) },
			func(nd congest.Node) any { b := nd.(*congest.BFSNode); return [2]int{b.Dist, b.ParentID} }},
		{"awerbuch", func(nw *congest.Network) []congest.Node { return congest.NewAwerbuchNodes(nw, 0) },
			func(nd congest.Node) any { a := nd.(*congest.AwerbuchNode); return [2]int{a.Depth, a.ParentID} }},
		{"ancestorsum", func(nw *congest.Network) []congest.Node {
			return congest.NewAncestorSumNodes(nw, parent, 0, value, congest.OpSum)
		}, func(nd congest.Node) any { return nd.(*congest.AncestorSumNode).Prefix }},
		{"pa", func(nw *congest.Network) []congest.Node {
			return congest.NewPANodes(nw, parent, 0, partOf, value, congest.OpMin)
		}, func(nd congest.Node) any { p := nd.(*congest.PANode); return [2]any{p.Result, p.HasResult} }},
	}
	for _, p := range programs {
		nw := congest.New(g)
		nw.Tracer = o.rec
		nodes := p.build(nw)
		rounds, err := nw.Run(nodes, 16*g.N())
		o.stat(rounds, err, nw.Stats())
		res := make([]any, len(nodes))
		for v, nd := range nodes {
			res[v] = p.extract(nd)
		}
		o.result(map[string]any{p.name: res})
	}
	// The fold, in three lanes, after the programs above.
	nw := congest.New(g)
	nw.Tracer = o.rec
	fold := congest.NewFoldProgram(nw, parent, 0)
	rounds, err := nw.Run(fold.Reset([]congest.FoldLane{
		{Values: value, Op: congest.OpSum}, {Values: value, Op: congest.OpMin}, {Values: partOf, Op: congest.OpMax},
	}), 16*g.N())
	o.stat(rounds, err, nw.Stats())
	res := make([][]int, g.N())
	for v := range res {
		res[v] = fold.Result(v)
	}
	o.result(map[string]any{"fold": res})
}

// runBoruvka runs the round-scheduled Borůvka program over BFS-prefix
// parts, as cmd/congestsim does.
func runBoruvka(t *testing.T, o *goldenOut, family string, n int, parts int) {
	g := goldenInstance(t, family, n, 1).G
	partOf := make([]int, g.N())
	for i, v := range g.BFS(0).Order {
		partOf[v] = i * parts / g.N()
	}
	nw := congest.New(g)
	nw.Tracer = o.rec
	nodes := congest.NewBoruvkaNodes(nw, partOf)
	rounds, err := nw.Run(nodes, (2*g.N()+4)*(shortcut.Log2Ceil(g.N())+3))
	o.stat(rounds, err, nw.Stats())
	for _, nd := range nodes {
		bn := nd.(*congest.BoruvkaNode)
		o.result([]any{bn.Fragment, bn.ForestPorts})
	}
}

// chatterNode is a seeded pseudo-random traffic generator: every round up
// to stopRound it sends on a random subset of its ports with random-sized
// payloads, and it records its full inbox history (a deep copy per round,
// since the engine recycles the recv buffer). It acts every round whether
// or not a message arrived, so it keeps a wake timer for the next round.
type chatterNode struct {
	deg       int
	state     uint64
	stopRound int
	history   [][]congest.Incoming
}

func (c *chatterNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	c.history = append(c.history, append([]congest.Incoming{}, recv...))
	if round >= c.stopRound {
		return nil, true
	}
	var send []congest.Outgoing
	for p := 0; p < c.deg; p++ {
		c.state = c.state*6364136223846793005 + 1442695040888963407
		r := c.state >> 33
		if r%3 != 0 {
			continue
		}
		args := make([]int, int(r>>8)%4) // 0..3 args: at most 4 words
		for i := range args {
			args[i] = int((r >> (16 + 4*i)) & 0xff)
		}
		send = append(send, congest.Outgoing{Port: p, Msg: congest.Message{Kind: int(r % 16), Args: args}})
	}
	return send, false
}

// NextWake keeps the node stepping every round until stopRound.
func (c *chatterNode) NextWake(round int) int {
	if round >= c.stopRound {
		return -1
	}
	return round + 1
}

func runChatter(t *testing.T, o *goldenOut, family string, n int, trial uint64) {
	g := goldenInstance(t, family, n, int64(trial)).G
	nw := congest.New(g)
	nw.Tracer = o.rec
	nodes := make([]congest.Node, g.N())
	for v := range nodes {
		nodes[v] = &chatterNode{deg: g.Degree(v), state: trial<<32 | uint64(v)*2654435761 + 1, stopRound: 12}
	}
	rounds, err := nw.Run(nodes, 100)
	o.stat(rounds, err, nw.Stats())
	for _, nd := range nodes {
		o.result(nd.(*chatterNode).history)
	}
}

func runGuardAccept(t *testing.T, o *goldenOut) {
	in := goldenInstance(t, "stacked", 60, 3)
	v, err := guard.ValidateInstance(in, guard.Options{Seed: 11, Exhaustive: true, Tracer: o.rec})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("planar instance rejected: %+v", v.Witness)
	}
	o.result(v)
}

// runGuardDense plants a K7 on a long path: globally sparse, locally too
// dense, so only the ball probes can reject it.
func runGuardDense(t *testing.T, o *goldenOut) {
	g := graph.New(64)
	for v := 0; v+1 < 64; v++ {
		g.MustAddEdge(v, v+1)
	}
	for a := 20; a < 27; a++ {
		for b := a + 2; b < 27; b++ {
			g.MustAddEdge(a, b)
		}
	}
	v, err := guard.ValidateGraph(g, guard.Options{Seed: 11, Exhaustive: true, Tracer: o.rec})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != guard.ReasonDenseRegion {
		t.Fatalf("K7 plant verdict OK=%v witness=%+v, want dense-region", v.OK, v.Witness)
	}
	o.result(v)
}

// goldenSeparator finds a Theorem 1 cycle separator with a BFS tree rooted
// on the outer face.
func goldenSeparator(t *testing.T, in *gen.Instance) *separator.Separator {
	tr, err := spanning.BFSTree(in.G, in.Emb.FaceRoot(in.OuterDart))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := separator.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sep
}

// runCertSeparator verifies an accepting and a rejecting separator
// labelling.
func runCertSeparator(t *testing.T, o *goldenOut, family string) {
	in := goldenInstance(t, family, 30, 1)
	labels, err := cert.NewVerifier(in.G, cert.Options{}).ProveSeparator(goldenSeparator(t, in))
	if err != nil {
		t.Fatal(err)
	}
	bad := make([][]int, len(labels))
	for v := range labels {
		bad[v] = append([]int(nil), labels[v]...)
	}
	bad[len(bad)-1][0]++ // corrupt one root-id field
	for i, lbs := range [][][]int{labels, bad} {
		v, err := cert.NewVerifier(in.G, cert.Options{Tracer: o.rec}).VerifySeparator(lbs)
		if err != nil {
			t.Fatal(err)
		}
		if v.OK != (i == 0) {
			t.Fatalf("labelling %d: verdict OK=%v", i, v.OK)
		}
		o.result(v)
	}
}

// runCertSchemes certifies a correct output under every scheme.
func runCertSchemes(t *testing.T, o *goldenOut) {
	in := goldenInstance(t, "stacked", 70, 2)
	g := in.G
	opt := cert.Options{Tracer: o.rec}
	bfs, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := spanning.DeepDFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	certify := []func() (*cert.Verdict, error){
		func() (*cert.Verdict, error) { return cert.CertifySpanningTree(g, bfs, opt) },
		func() (*cert.Verdict, error) { return cert.CertifyDFSTree(g, 0, deep.Parent, opt) },
		func() (*cert.Verdict, error) { return cert.CertifySeparator(g, goldenSeparator(t, in), opt) },
		func() (*cert.Verdict, error) { return cert.NewVerifier(g, opt).CertifyEmbedding(in.Emb) },
	}
	for _, c := range certify {
		v, err := c()
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK {
			t.Fatalf("%s: correct output rejected", v.Scheme)
		}
		o.result(v)
	}
}

// sendLog wraps a node program and records every message it sends.
type sendLog struct {
	inner congest.Node
	v     int
	deg   int // the ports an EveryPort send stands for
	sent  []sentSlot
}

type sentSlot struct{ round, v, port, args int }

func (s *sendLog) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	out, done := s.inner.Round(round, recv)
	for _, o := range out {
		if o.Port != congest.EveryPort {
			s.sent = append(s.sent, sentSlot{round, s.v, o.Port, len(o.Msg.Args)})
			continue
		}
		for p := 0; p < s.deg; p++ {
			s.sent = append(s.sent, sentSlot{round, s.v, p, len(o.Msg.Args)})
		}
	}
	return out, done
}

func buildProgram(nw *congest.Network, program string) ([]congest.Node, func(congest.Node) any) {
	switch program {
	case "bfs":
		return congest.NewBFSNodes(nw, 0), func(nd congest.Node) any {
			b := nd.(*congest.BFSNode)
			return [2]int{b.Dist, b.ParentID}
		}
	case "pa":
		// Five parts over the centralized BFS tree, as in runPrograms.
		g := nw.G
		value := make([]int, g.N())
		partOf := make([]int, g.N())
		for v := range value {
			value[v] = (v * 2654435761) % 1000
			partOf[v] = v % 5
		}
		return congest.NewPANodes(nw, g.BFS(0).Parent, 0, partOf, value, congest.OpSum), func(nd congest.Node) any {
			p := nd.(*congest.PANode)
			return [2]any{p.Result, p.HasResult}
		}
	}
	return congest.NewAwerbuchNodes(nw, 0), func(nd congest.Node) any {
		a := nd.(*congest.AwerbuchNode)
		return [2]int{a.Depth, a.ParentID}
	}
}

// placeFaults records a fault-free run of the program and places one fault
// of each requested kind on the earliest round from minRound on whose
// traffic can host them
// all: each message fault sits on its own edge on a slot that carries a
// message (a payload-carrying one for Corrupt), and a crash hits a vertex
// that neither sends nor receives any of them. Every fault takes effect in
// that one round, before any of them can perturb the run, so all of them
// fire.
func placeFaults(t *testing.T, g *graph.Graph, program string, minRound int, kinds []chaos.Kind) []chaos.Fault {
	nw := congest.New(g)
	inner, _ := buildProgram(nw, program)
	nodes := make([]congest.Node, len(inner))
	logs := make([]*sendLog, len(inner))
	for v := range inner {
		logs[v] = &sendLog{inner: inner[v], v: v, deg: g.Degree(v)}
		nodes[v] = logs[v]
	}
	if _, err := nw.Run(nodes, 16*g.N()); err != nil {
		t.Fatal(err)
	}
	var slots []sentSlot
	for _, l := range logs {
		slots = append(slots, l.sent...)
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.round != b.round {
			return a.round < b.round
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return a.port < b.port
	})
	for lo := 0; lo < len(slots); {
		hi := lo
		for hi < len(slots) && slots[hi].round == slots[lo].round {
			hi++
		}
		if slots[lo].round < minRound {
			lo = hi
			continue
		}
		if faults := placeInRound(g, slots[lo:hi], kinds); faults != nil {
			return faults
		}
		lo = hi
	}
	t.Fatalf("no round of the %s run from %d on hosts faults %v", program, minRound, kinds)
	return nil
}

func placeInRound(g *graph.Graph, slots []sentSlot, kinds []chaos.Kind) []chaos.Fault {
	usedEdge := map[int]bool{}
	touched := map[int]bool{0: true} // the root never crashes
	for _, s := range slots {
		touched[s.v] = true
	}
	var faults []chaos.Fault
	for _, k := range kinds {
		if k == chaos.Crash {
			continue
		}
		placed := false
		for _, s := range slots {
			id := int(g.IncidentEdges(s.v)[s.port])
			if usedEdge[id] || (k == chaos.Corrupt && s.args == 0) {
				continue
			}
			ed := g.EdgeByID(id)
			to := ed.Other(s.v)
			usedEdge[id] = true
			touched[to] = true
			f := chaos.Fault{Kind: k, Round: s.round, Edge: id, IntoV: ed.V == to}
			switch k {
			case chaos.Corrupt:
				f.Word, f.XOR = 0, 0x5a5
			case chaos.Stall:
				f.Len = 2 + len(faults)%3
			}
			faults = append(faults, f)
			placed = true
			break
		}
		if !placed {
			return nil
		}
	}
	for _, k := range kinds {
		if k != chaos.Crash {
			continue
		}
		victim := -1
		for v := 0; v < g.N(); v++ {
			if !touched[v] {
				victim = v
				break
			}
		}
		if victim < 0 {
			return nil
		}
		touched[victim] = true
		faults = append(faults, chaos.Fault{Kind: chaos.Crash, Round: slots[0].round, Node: victim})
	}
	return faults
}

// runInjected runs the program under explicitly placed faults and asserts
// every armed kind fired.
func runInjected(t *testing.T, o *goldenOut, program, family string, n int, seed int64, minRound int, kinds []chaos.Kind) {
	g := goldenInstance(t, family, n, seed).G
	plan := &chaos.Plan{Seed: seed, Faults: placeFaults(t, g, program, minRound, kinds)}
	nw := congest.New(g)
	nw.Tracer = o.rec
	inj := plan.Arm(nw, 1)
	nodes, extract := buildProgram(nw, program)
	rounds, err := nw.Run(nodes, 10*g.N()+100)
	o.stat(rounds, err, nw.Stats())
	for _, nd := range nodes {
		o.result(extract(nd))
	}
	c := inj.Counts()
	o.counts = mustJSON(c)
	fired := map[chaos.Kind]int64{
		chaos.Drop: c.Drops, chaos.Corrupt: c.Corruptions, chaos.Stall: c.Stalls,
		chaos.LinkDown: c.LinkDownDrops, chaos.Crash: c.Crashes,
	}
	for _, k := range kinds {
		if fired[k] == 0 {
			t.Fatalf("armed %s fault never fired (counts %+v, plan %+v)", k, c, plan.Faults)
		}
	}
}

// runAwerbuchRecovery supervises the token DFS under a persistent crash of
// a vertex the token has not reached yet, plus seeded transient faults:
// every retry loses the token, and the run degrades to the fault-free
// fallback.
func runAwerbuchRecovery(t *testing.T, o *goldenOut) {
	g := goldenInstance(t, "grid", 64, 1).G
	plan := &chaos.Plan{
		Seed:   7,
		Spec:   chaos.Spec{Drops: 6, Stalls: 6, Corruptions: 4, Horizon: 40, Protect: []int{0}},
		Faults: []chaos.Fault{{Kind: chaos.Crash, Round: 25, Node: g.N() - 1}},
	}
	opt := cert.Options{Tracer: o.rec}
	primary := chaos.AwerbuchDFS(g, 0, plan, opt)
	fallback := chaos.AwerbuchDFS(g, 0, nil, opt)
	parent, rep, err := chaos.RunWithRecoveryContext(context.Background(), primary, &fallback, chaos.Policy{Tracer: o.rec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Crashes == 0 || rep.Outcome != chaos.OutcomeDegraded {
		t.Fatalf("outcome %s, faults %+v: want a fired crash and a degraded run", rep.Outcome, rep.Faults)
	}
	o.result(parent)
	o.result(rep)
	o.counts = mustJSON(rep.Faults)
}
