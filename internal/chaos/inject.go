package chaos

import (
	"planardfs/internal/congest"
	"planardfs/internal/graph"
)

// Injector is a fault plan compiled against one graph for one attempt. It
// implements congest.Injector: the engine consults it for every stepped
// vertex (crash-stop) and every in-flight message (link-down, drop,
// corrupt, stall), and it wakes the vertices its round-scheduled events
// concern — each crash-stopped vertex at its crash round, each stalled
// message's receiver the round after its release — through the engine's
// timer hook.
//
// All decision tables are built by compile before the run starts; the only
// state mutated during a run is owned per receiver (stall buffers, release
// queues, fired-fault counters) or per directed edge (scratch payloads), so
// its decisions do not depend on which other vertices the schedule steps.
// An Injector is single-run: arm a fresh one per attempt.
type Injector struct {
	g *graph.Graph

	// off[v] is the flat index of vertex v's port 0; directed edge
	// (src, srcPort) lives at off[src]+srcPort.
	off []int
	// downFrom[fp] is the round from which the directed edge fp is down
	// (never if the link stays up).
	downFrom []int32
	// crashAt[v] is the round from which vertex v is crash-stopped.
	crashAt []int32
	// events[fp] holds the point faults on directed edge fp, sorted by
	// round, at most one per round.
	events [][]event

	// wake is the engine's timer hook, set by Schedule.
	wake func(v, round int)

	// Per-receiver mutable state.
	stalled [][]stalledMsg
	pending []int32
	cnt     []Counts
}

// event is one compiled point fault on a directed edge.
type event struct {
	round int32
	kind  Kind
	word  int32 // Corrupt: payload word index (mod arg count)
	xor   int   // Corrupt: value XORed in
	stall int32 // Stall: delay in rounds
	buf   []int // Corrupt/Stall: scratch copy of Args, reused if re-fired
}

// stalledMsg is a withheld message awaiting release toward its receiver.
type stalledMsg struct {
	release int32
	port    int32
	kind    int
	args    []int
	done    bool
}

var _ congest.Injector = (*Injector)(nil)

// Schedule implements congest.Injector: it wakes every crash-stopped vertex
// at its crash round and keeps the hook for stall releases.
func (in *Injector) Schedule(wake func(v, round int)) {
	in.wake = wake
	for v, at := range in.crashAt {
		if at != never {
			wake(v, int(at))
		}
	}
}

// Crashed implements congest.Injector.
func (in *Injector) Crashed(round, v int) bool {
	at := in.crashAt[v]
	if int32(round) < at {
		return false
	}
	if int32(round) == at {
		in.cnt[v].Crashes++
	}
	return true
}

// Deliver implements congest.Injector. It rules on the message from src
// (on srcPort) into dst at the given round.
func (in *Injector) Deliver(round, src, srcPort, dst, dstPort int, msg congest.Message) (congest.Message, congest.DeliveryFate) {
	fp := in.off[src] + srcPort
	c := &in.cnt[dst]
	if int32(round) >= in.downFrom[fp] {
		c.LinkDownDrops++
		return msg, congest.FateDrop
	}
	evs := in.events[fp]
	if len(evs) == 0 {
		return msg, congest.FateDeliver
	}
	// Binary search the (short, sorted) per-port event list for this round.
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := (lo + hi) / 2
		if evs[mid].round < int32(round) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(evs) || evs[lo].round != int32(round) {
		return msg, congest.FateDeliver
	}
	ev := &evs[lo]
	switch ev.kind {
	case Drop:
		c.Drops++
		return msg, congest.FateDrop
	case Corrupt:
		if len(msg.Args) == 0 {
			return msg, congest.FateDeliver // no payload word to flip
		}
		// Copy before flipping: the sender may share msg.Args across ports.
		ev.buf = append(ev.buf[:0], msg.Args...)
		ev.buf[int(ev.word)%len(ev.buf)] ^= ev.xor
		c.Corruptions++
		return congest.Message{Kind: msg.Kind, Args: ev.buf}, congest.FateDeliver
	case Stall:
		ev.buf = append(ev.buf[:0], msg.Args...)
		in.stalled[dst] = append(in.stalled[dst], stalledMsg{
			release: int32(round) + ev.stall,
			port:    int32(dstPort),
			kind:    msg.Kind,
			args:    ev.buf,
		})
		in.pending[dst]++
		in.wake(dst, round+int(ev.stall)+1)
		c.Stalls++
		return msg, congest.FateStall
	}
	return msg, congest.FateDeliver
}

// Released implements congest.Injector: it appends stalled messages whose
// delay expires at this round onto dst's inbox, after the round's regular
// deliveries.
func (in *Injector) Released(round, dst int, inbox []congest.Incoming) []congest.Incoming {
	if in.pending[dst] == 0 {
		return inbox
	}
	sl := in.stalled[dst]
	for i := range sl {
		if sl[i].done || sl[i].release > int32(round) {
			continue
		}
		inbox = append(inbox, congest.Incoming{
			Port: int(sl[i].port),
			Msg:  congest.Message{Kind: sl[i].kind, Args: sl[i].args},
		})
		sl[i].done = true
		in.pending[dst]--
	}
	return inbox
}

// Pending implements congest.Injector: the network must not terminate
// while stalled messages await release.
func (in *Injector) Pending() bool {
	for _, p := range in.pending {
		if p > 0 {
			return true
		}
	}
	return false
}

// Counts returns the tally of faults that fired during the run so far.
func (in *Injector) Counts() Counts {
	var total Counts
	for i := range in.cnt {
		total.Add(in.cnt[i])
	}
	return total
}
