package congest

import "testing"

func TestPackUnpackRoundTrip(t *testing.T) {
	m := Message{Kind: msgBFS, Args: (&intPayload{Val: 42}).AppendWords(nil)}
	if len(m.Args) != 1 {
		t.Fatalf("intPayload 42 packs to %+v", m)
	}
	var got intPayload
	Unpack(m, &got)
	if got.Val != 42 {
		t.Fatalf("round trip: got %d, want 42", got.Val)
	}

	pm := Message{Kind: msgPAPair, Args: (&pairPayload{Part: 7, Value: -3}).AppendWords(nil)}
	var gp pairPayload
	Unpack(pm, &gp)
	if gp.Part != 7 || gp.Value != -3 {
		t.Fatalf("pair round trip: got %+v", gp)
	}
}

// TestPayloadWithinWordBudget pins the wire size of every built-in payload
// to the default 4-word message budget the engine enforces at runtime.
func TestPayloadWithinWordBudget(t *testing.T) {
	for name, p := range map[string]Payload{
		"int":  &intPayload{Val: 1},
		"pair": &pairPayload{Part: 1, Value: 2},
	} {
		if w := (Message{Args: p.AppendWords(nil)}).Words(); w > 4 {
			t.Errorf("payload %s is %d words, exceeding the default budget", name, w)
		}
	}
}
