// Package chaos is the deterministic fault-injection and certified-recovery
// layer of the CONGEST stack.
//
// A Plan describes a fault scenario — message drops, single-word payload
// corruptions, links going down from a round onward, crash-stopped nodes,
// per-edge delivery stalls — as an explicit fault list plus a seeded Spec
// sizing a randomized portion. Arm compiles the plan into per-(round,edge)
// decisions and installs them on a congest.Network through the engine's
// injection hook, so the same seed and plan perturb a run byte-identically
// every time (the trace-identity contract of DESIGN.md §7 extends to
// injected runs).
//
// Determinism is the whole point: every decision is a pure function of
// (seed, attempt, graph), drawn through an explicitly seeded rand.Rand —
// there is no hidden entropy and no wall clock. Randomized faults are
// transient: each retry attempt re-derives their positions from (seed,
// attempt), modelling independent transient faults reproducibly, while
// faults listed explicitly in Plan.Faults persist across attempts.
// Structural faults (Spec.Structural) model the effect of faults on the
// simulated charged layers, which exchange no engine-level messages; they
// decay geometrically across attempts (count >> (attempt-1)), a transient
// burst that lets retries recover.
//
// On top of injection, RunWithRecovery (recover.go) is the supervised
// runtime closing the loop: execute a producer, certify its output with the
// internal/cert proof-labeling verifiers, retry under an exponential
// round-budget backoff, degrade to a fallback producer, and report — so an
// injected fault can never yield a silently wrong output, only a certified
// result or an explicit degraded/failed report.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"planardfs/internal/congest"
	"planardfs/internal/graph"
)

// Kind identifies a fault class.
type Kind uint8

// The fault classes of the model.
const (
	// Drop discards one message at its (round, edge, direction) slot.
	Drop Kind = iota
	// Corrupt XORs a nonzero value into one payload word of one message.
	// The kind tag is never corrupted (payload means the argument words),
	// and an argument-less message passes unchanged.
	Corrupt
	// LinkDown silences an edge in both directions from a round onward.
	LinkDown
	// Crash crash-stops a vertex from a round onward: its program never
	// steps again, it sends nothing, and it counts as done.
	Crash
	// Stall withholds one message and delivers it Len rounds late, after
	// that round's regular deliveries.
	Stall
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case LinkDown:
		return "linkdown"
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	}
	return "unknown"
}

// Fault is one injected fault. Which fields are read depends on Kind; see
// the Kind constants.
type Fault struct {
	Kind  Kind
	Round int  // round the fault takes effect
	Edge  int  // graph edge ID (Drop, Corrupt, Stall, LinkDown)
	IntoV bool // faulted direction: the delivery into the edge's V endpoint
	Word  int  // Corrupt: payload word index, taken modulo the argument count
	XOR   int  // Corrupt: nonzero value XORed into the word
	Node  int  // Crash: the crash-stopped vertex
	Len   int  // Stall: delivery delay in rounds (min 1)
}

// Spec sizes the randomized portion of a plan: how many faults of each
// class to derive from the seed per attempt.
type Spec struct {
	Drops       int
	Corruptions int
	LinkDowns   int
	Crashes     int
	Stalls      int
	// Structural is the number of parent-pointer corruptions applied to
	// simulated (charged-layer) outputs on attempt 1; the burst decays as
	// Structural >> (attempt-1) on retries.
	Structural int
	// Horizon bounds the rounds [0, Horizon) in which point faults fire;
	// 0 means 2n+64.
	Horizon int
	// StallLen is the delivery delay of Stall faults; 0 means 3.
	StallLen int
	// Protect lists vertices never crash-stopped (typically the root).
	Protect []int
}

// zero reports whether the spec derives no faults at all.
func (s Spec) zero() bool {
	return s.Drops == 0 && s.Corruptions == 0 && s.LinkDowns == 0 &&
		s.Crashes == 0 && s.Stalls == 0 && s.Structural == 0
}

// ParseSpec parses a CLI spec string of comma-separated key=value pairs,
// e.g. "drops=2,corruptions=1,crashes=1,structural=4,horizon=500".
// Keys: drops, corruptions, linkdowns, crashes, stalls, structural,
// horizon, stalllen.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: spec entry %q is not key=value", kv)
		}
		x, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || x < 0 {
			return Spec{}, fmt.Errorf("chaos: spec value %q for %q is not a non-negative integer", v, k)
		}
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "drops":
			spec.Drops = x
		case "corruptions":
			spec.Corruptions = x
		case "linkdowns":
			spec.LinkDowns = x
		case "crashes":
			spec.Crashes = x
		case "stalls":
			spec.Stalls = x
		case "structural":
			spec.Structural = x
		case "horizon":
			spec.Horizon = x
		case "stalllen":
			spec.StallLen = x
		default:
			return Spec{}, fmt.Errorf("chaos: unknown spec key %q", k)
		}
	}
	return spec, nil
}

// Plan is a deterministic fault scenario: explicit faults active in every
// attempt, plus a seeded Spec re-derived per attempt (transient faults).
type Plan struct {
	Seed   int64
	Spec   Spec
	Faults []Fault
}

// NewPlan returns a plan deriving spec-sized random faults from seed, with
// no explicit faults.
func NewPlan(seed int64, spec Spec) *Plan {
	return &Plan{Seed: seed, Spec: spec}
}

// PlanFor parses a CLI spec string (see ParseSpec) into the plan it
// derives from seed, with the protect vertices never crash-stopped. An
// empty spec returns a nil plan: a fault-free run.
func PlanFor(spec string, seed int64, protect ...int) (*Plan, error) {
	if spec == "" {
		return nil, nil
	}
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	s.Protect = protect
	return NewPlan(seed, s), nil
}

// rng streams: distinct salts keep the per-attempt message-level stream and
// the structural stream independent of each other.
const (
	saltMessage    = 0x9e3779b97f4a7c15
	saltStructural = 0xc2b2ae3d27d4eb4f
)

func (p *Plan) rng(salt uint64, attempt int) *rand.Rand {
	s := uint64(p.Seed)*0x100000001b3 ^ salt ^ uint64(attempt)*0x9e3779b9
	return rand.New(rand.NewSource(int64(s)))
}

// horizon returns the effective fault horizon for an n-vertex graph.
func (p *Plan) horizon(n int) int {
	if p.Spec.Horizon > 0 {
		return p.Spec.Horizon
	}
	return 2*n + 64
}

// faultsFor derives the full fault list of one attempt: the explicit
// faults, then the spec-sized random portion drawn from (seed, attempt).
func (p *Plan) faultsFor(g *graph.Graph, attempt int) []Fault {
	out := append([]Fault(nil), p.Faults...)
	if p.Spec.zero() {
		return out
	}
	n, m := g.N(), g.M()
	if m == 0 {
		return out
	}
	rng := p.rng(saltMessage, attempt)
	horizon := p.horizon(n)
	protected := make(map[int]bool, len(p.Spec.Protect))
	for _, v := range p.Spec.Protect {
		protected[v] = true
	}
	stallLen := p.Spec.StallLen
	if stallLen <= 0 {
		stallLen = 3
	}
	point := func(k Kind) Fault {
		return Fault{Kind: k, Round: rng.Intn(horizon), Edge: rng.Intn(m), IntoV: rng.Intn(2) == 1}
	}
	for i := 0; i < p.Spec.Drops; i++ {
		out = append(out, point(Drop))
	}
	for i := 0; i < p.Spec.Corruptions; i++ {
		f := point(Corrupt)
		f.Word = rng.Intn(8)
		f.XOR = 1 + rng.Intn(1<<16)
		out = append(out, f)
	}
	for i := 0; i < p.Spec.LinkDowns; i++ {
		f := point(LinkDown)
		out = append(out, f)
	}
	for i := 0; i < p.Spec.Crashes; i++ {
		v := rng.Intn(n)
		for try := 0; protected[v] && try < 4*n; try++ {
			v = rng.Intn(n)
		}
		if protected[v] {
			continue // everything protected: skip the crash
		}
		out = append(out, Fault{Kind: Crash, Round: rng.Intn(horizon), Node: v})
	}
	for i := 0; i < p.Spec.Stalls; i++ {
		f := point(Stall)
		f.Len = stallLen
		out = append(out, f)
	}
	return out
}

// CorruptParents applies the plan's structural fault burst for the given
// attempt to a parent array produced by a simulated (charged-layer) run,
// mutating parent in place and returning the number of corruptions applied.
// Victims are chosen deterministically from (seed, attempt); the root and
// protected vertices are spared. A nil plan applies nothing.
func (p *Plan) CorruptParents(attempt, root int, parent []int) int {
	if p == nil || p.Spec.Structural == 0 || len(parent) < 2 {
		return 0
	}
	burst := p.Spec.Structural >> (attempt - 1)
	if burst <= 0 {
		return 0
	}
	rng := p.rng(saltStructural, attempt)
	protected := make(map[int]bool, len(p.Spec.Protect)+1)
	protected[root] = true
	for _, v := range p.Spec.Protect {
		protected[v] = true
	}
	n := len(parent)
	applied := 0
	for i := 0; i < burst; i++ {
		v := rng.Intn(n)
		for try := 0; protected[v] && try < 4*n; try++ {
			v = rng.Intn(n)
		}
		if protected[v] {
			continue
		}
		w := rng.Intn(n)
		for w == v || w == parent[v] {
			w = rng.Intn(n)
		}
		parent[v] = w
		applied++
	}
	return applied
}

// CorruptInts is the generic form of CorruptParents for claimed outputs
// that are not parent arrays (e.g. separator paths): it applies the
// attempt's structural burst to entries of vals, each rewritten to a
// different deterministic value in [0, n), and returns the number applied.
func (p *Plan) CorruptInts(attempt, n int, vals []int) int {
	if p == nil || p.Spec.Structural == 0 || len(vals) == 0 || n < 2 {
		return 0
	}
	burst := p.Spec.Structural >> (attempt - 1)
	if burst <= 0 {
		return 0
	}
	rng := p.rng(saltStructural, attempt)
	for i := 0; i < burst; i++ {
		idx := rng.Intn(len(vals))
		w := rng.Intn(n)
		for w == vals[idx] {
			w = rng.Intn(n)
		}
		vals[idx] = w
	}
	return burst
}

// Arm compiles the plan for one attempt and installs the injector on nw.
// It returns the injector so the caller can read fired-fault counts after
// the run. A nil plan (or one with no faults) leaves nw untouched and
// returns nil: the engine then runs with zero hook overhead.
func (p *Plan) Arm(nw *congest.Network, attempt int) *Injector {
	if p == nil {
		return nil
	}
	faults := p.faultsFor(nw.G, attempt)
	if len(faults) == 0 {
		return nil
	}
	inj := compile(nw.G, faults)
	nw.Injector = inj
	return inj
}

// Counts tallies faults that actually fired (armed faults miss when no
// message occupies their slot; misses are not counted).
type Counts struct {
	Drops         int64
	Corruptions   int64
	Stalls        int64
	LinkDownDrops int64
	Crashes       int64
	Structural    int64
}

// Add accumulates d into c.
func (c *Counts) Add(d Counts) {
	c.Drops += d.Drops
	c.Corruptions += d.Corruptions
	c.Stalls += d.Stalls
	c.LinkDownDrops += d.LinkDownDrops
	c.Crashes += d.Crashes
	c.Structural += d.Structural
}

// Sub returns c - d, the per-attempt delta of two cumulative tallies.
func (c Counts) Sub(d Counts) Counts {
	return Counts{
		Drops:         c.Drops - d.Drops,
		Corruptions:   c.Corruptions - d.Corruptions,
		Stalls:        c.Stalls - d.Stalls,
		LinkDownDrops: c.LinkDownDrops - d.LinkDownDrops,
		Crashes:       c.Crashes - d.Crashes,
		Structural:    c.Structural - d.Structural,
	}
}

// Total returns the total number of fired faults.
func (c Counts) Total() int64 {
	return c.Drops + c.Corruptions + c.Stalls + c.LinkDownDrops + c.Crashes + c.Structural
}

func (c Counts) String() string {
	return fmt.Sprintf("drops=%d corruptions=%d stalls=%d linkdown=%d crashes=%d structural=%d",
		c.Drops, c.Corruptions, c.Stalls, c.LinkDownDrops, c.Crashes, c.Structural)
}

const never = math.MaxInt32 // sentinel round for "fault never fires"

// compile lowers a fault list to the flat per-(round, directed edge)
// decision tables the engine hook reads. Point faults on the same slot are
// deduplicated deterministically (sorted, first wins).
func compile(g *graph.Graph, faults []Fault) *Injector {
	n := g.N()
	inj := &Injector{g: g}
	inj.off = make([]int, n+1)
	for v := 0; v < n; v++ {
		inj.off[v+1] = inj.off[v] + g.Degree(v)
	}
	ports := inj.off[n]
	inj.downFrom = make([]int32, ports)
	for i := range inj.downFrom {
		inj.downFrom[i] = never
	}
	inj.crashAt = make([]int32, n)
	for i := range inj.crashAt {
		inj.crashAt[i] = never
	}
	inj.events = make([][]event, ports)
	inj.stalled = make([][]stalledMsg, n)
	inj.pending = make([]int32, n)
	inj.cnt = make([]Counts, n)

	// flatPort returns the flat sender-side port index of the delivery
	// direction described by (edge, intoV): the sender is the opposite
	// endpoint.
	flatPort := func(edge int, intoV bool) int {
		ed := g.EdgeByID(edge)
		src := ed.U
		if !intoV {
			src = ed.V
		}
		for p, id := range g.IncidentEdges(src) {
			if int(id) == edge {
				return inj.off[src] + p
			}
		}
		panic("chaos: edge not incident to its endpoint")
	}

	for _, f := range faults {
		switch f.Kind {
		case Crash:
			if f.Node >= 0 && f.Node < n && int32(f.Round) < inj.crashAt[f.Node] {
				inj.crashAt[f.Node] = int32(f.Round)
			}
		case LinkDown:
			if f.Edge < 0 || f.Edge >= g.M() {
				continue
			}
			for _, intoV := range []bool{false, true} {
				fp := flatPort(f.Edge, intoV)
				if int32(f.Round) < inj.downFrom[fp] {
					inj.downFrom[fp] = int32(f.Round)
				}
			}
		case Drop, Corrupt, Stall:
			if f.Edge < 0 || f.Edge >= g.M() || f.Round < 0 {
				continue
			}
			fp := flatPort(f.Edge, f.IntoV)
			ev := event{round: int32(f.Round), kind: f.Kind, word: int32(f.Word), xor: f.XOR, stall: int32(f.Len)}
			if ev.kind == Stall && ev.stall < 1 {
				ev.stall = 1
			}
			inj.events[fp] = append(inj.events[fp], ev)
		}
	}
	for fp := range inj.events {
		evs := inj.events[fp]
		if len(evs) < 2 {
			continue
		}
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.round != b.round {
				return a.round < b.round
			}
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			if a.word != b.word {
				return a.word < b.word
			}
			if a.xor != b.xor {
				return a.xor < b.xor
			}
			return a.stall < b.stall
		})
		// First event per round wins; later collisions are dropped.
		out := evs[:1]
		for _, ev := range evs[1:] {
			if ev.round != out[len(out)-1].round {
				out = append(out, ev)
			}
		}
		inj.events[fp] = out
	}
	return inj
}
