package congest

import (
	"errors"
	"strings"
	"testing"
)

// Typed Run errors: every failure class matches its sentinel through
// errors.Is and reports the offending round, vertex and port in its
// message, so supervisors can branch without parsing strings (and humans
// can read the strings anyway).

// misbehaveNode violates a chosen sending rule at a chosen round; before
// that it sends nothing, so it wakes itself for that round.
type misbehaveNode struct {
	at   int
	send func() []Outgoing
}

func (m *misbehaveNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	if round == m.at {
		return m.send(), false
	}
	return nil, false
}

func (m *misbehaveNode) NextWake(round int) int { return m.at }

// runMisbehaving runs a 2x2 grid where vertex 3 misbehaves at round 2.
func runMisbehaving(t *testing.T, send func() []Outgoing) error {
	t.Helper()
	g := gridGraph(t, 2, 2)
	nodes := make([]Node, g.N())
	for v := range nodes {
		nodes[v] = &misbehaveNode{at: -1}
	}
	nodes[3] = &misbehaveNode{at: 2, send: send}
	nw := New(g)
	_, err := nw.Run(nodes, 10)
	if err == nil {
		t.Fatal("protocol violation accepted")
	}
	return err
}

func TestProtocolErrorInvalidPort(t *testing.T) {
	err := runMisbehaving(t, func() []Outgoing {
		return []Outgoing{{Port: 7, Msg: Message{Kind: 1}}}
	})
	if !errors.Is(err, ErrProtocol) || !errors.Is(err, ErrInvalidPort) {
		t.Fatalf("err = %v, want ErrProtocol and ErrInvalidPort", err)
	}
	if errors.Is(err, ErrDuplicateSend) || errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v matches the wrong specific sentinel", err)
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *ProtocolError", err)
	}
	if pe.Round != 2 || pe.Vertex != 3 || pe.Port != 7 {
		t.Fatalf("ProtocolError = %+v, want round 2 vertex 3 port 7", pe)
	}
	want := "congest: round 2: node 3 sent on invalid port 7"
	if err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
}

func TestProtocolErrorDuplicateSend(t *testing.T) {
	err := runMisbehaving(t, func() []Outgoing {
		return []Outgoing{
			{Port: 0, Msg: Message{Kind: 1}},
			{Port: 0, Msg: Message{Kind: 2}},
		}
	})
	if !errors.Is(err, ErrProtocol) || !errors.Is(err, ErrDuplicateSend) {
		t.Fatalf("err = %v, want ErrProtocol and ErrDuplicateSend", err)
	}
	want := "congest: round 2: node 3 sent two messages on port 0 in one round"
	if err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
}

func TestProtocolErrorMessageTooLarge(t *testing.T) {
	err := runMisbehaving(t, func() []Outgoing {
		return []Outgoing{{Port: 0, Msg: Message{Kind: 1, Args: []int{1, 2, 3, 4, 5, 6}}}}
	})
	if !errors.Is(err, ErrProtocol) || !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrProtocol and ErrMessageTooLarge", err)
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *ProtocolError", err)
	}
	if pe.Words != 7 || pe.Limit != 4 {
		t.Fatalf("ProtocolError = %+v, want words 7 limit 4", pe)
	}
	if !strings.Contains(err.Error(), "node 3 sent a message of 7 words on port 0, exceeding the 4-word limit") {
		t.Fatalf("message = %q lacks the size diagnosis", err.Error())
	}
}

func TestRoundLimitErrorDetails(t *testing.T) {
	g := gridGraph(t, 4, 4)
	nw := New(g)
	nodes := NewBFSNodes(nw, 0)
	_, err := nw.Run(nodes, 2)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	var rl *RoundLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %T, want *RoundLimitError", err)
	}
	if rl.Limit != 2 {
		t.Fatalf("Limit = %d, want 2", rl.Limit)
	}
	want := "congest: round limit exceeded (limit 2)"
	if err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
}
