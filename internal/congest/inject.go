package congest

// Fault injection hook. The engine calls an optional Injector at fixed
// points of the round loop — once per stepped vertex (crash-stop), once per
// in-flight message on delivery (drop, corrupt, stall), and once per woken
// vertex at the end of delivery (stall release) — so a seeded fault plan
// perturbs a run identically every time. internal/chaos provides the
// compiled deterministic implementation; the hook itself is policy-free.
//
// Timer contract. The engine steps only the vertices that can act (see the
// package comment), so the injector announces its own round-scheduled
// events through the wake hook it receives from Schedule:
//
//   - a vertex that crashes at round r needs a wake-up at r, so it is
//     stepped (and found crashed) then even if no message reaches it;
//   - a message stalled until release round r needs a wake-up of its
//     receiver at r+1: at the end of round r's delivery the engine calls
//     Released for every vertex woken for round r+1, after that round's
//     regular deliveries.
//
// Pending wake-ups never delay termination; Pending does.
//
// Determinism contract. The engine is single-threaded and calls the hooks
// in a fixed order: Crashed in ascending vertex order of the stepped set,
// Deliver in ascending sender order and, within a sender, in the order the
// sender listed its sends, Released in ascending vertex order of the woken
// set. Implementations that keep their mutable state per receiver and per
// directed edge (as internal/chaos does) take the same decisions whatever
// subset of vertices the schedule steps, and whatever order a sender lists
// its ports in: on a simple graph a receiver hears at most one message per
// sender in a round.
//
// A nil Network.Injector skips every hook; the steady-state round stays
// allocation-free either way.

// DeliveryFate is an Injector's ruling on one in-flight message.
type DeliveryFate uint8

// The delivery fates.
const (
	// FateDeliver delivers the (possibly rewritten) message this round.
	FateDeliver DeliveryFate = iota
	// FateDrop discards the message; the sender is not notified.
	FateDrop
	// FateStall withholds the message now; the injector must hand it back
	// through Released in a later round (waking the receiver for it) and
	// report it via Pending until it does.
	FateStall
)

// Injector intercepts a run at the engine's fault-injection points. See the
// comment above for the timer and determinism contract.
type Injector interface {
	// Schedule is called once before round 0 with the engine's timer hook:
	// wake(v, r) makes the engine step vertex v at round r whether or not a
	// message arrives. The injector registers its crash rounds here and
	// may keep wake to register stall releases as it stalls messages.
	Schedule(wake func(v, round int))
	// Crashed reports whether vertex v is crash-stopped at round r. A
	// crashed vertex does not step (its program is never called again),
	// sends nothing, and counts as done for termination; messages already
	// in flight to it are still delivered and ignored.
	Crashed(round, v int) bool
	// Deliver adjudicates the message from src (leaving on srcPort) into
	// dst (arriving on dstPort) at the given round. It may rewrite the
	// message (corruption) by returning a modified copy with FateDeliver;
	// it must not mutate msg.Args in place, which the sender may share
	// across ports.
	Deliver(round, src, srcPort, dst, dstPort int, msg Message) (Message, DeliveryFate)
	// Released appends messages previously stalled toward dst whose delay
	// expires at this round onto inbox and returns the extended slice. It
	// is called for every vertex woken for the next round, so it must
	// return inbox unchanged when nothing is due. The appended messages
	// must own their Args (the original sender's buffers are long
	// recycled).
	Released(round, dst int, inbox []Incoming) []Incoming
	// Pending reports whether the injector still withholds stalled
	// messages; the network does not terminate while it returns true.
	Pending() bool
}
