package aglet

import (
	"errors"
	"strings"
	"testing"
)

func TestHandlersAnswerTypedAndRaw(t *testing.T) {
	type sum struct {
		A, B int
	}
	h := Handlers{"raw": func(_ *Context, msg Message) (Message, error) { return msg, nil }}
	On(h, "add", func(_ *Context, req sum) (int, error) { return req.A + req.B, nil })
	On(h, "ack", func(_ *Context, _ sum) (Message, error) { return Message{Kind: "ok"}, nil })

	req, err := Encode("add", sum{A: 2, B: 3})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := h.Handle(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := Decode(reply, &got); err != nil || reply.Kind != "add" || got != 5 {
		t.Errorf("add replied %q %s (%v), want add 5", reply.Kind, reply.Data, err)
	}
	// A Message reply is the reply as it stands: no payload is added.
	if reply, err := h.Handle(nil, Message{Kind: "ack", Data: []byte(`{}`)}); err != nil || reply.Kind != "ok" || reply.Data != nil {
		t.Errorf("ack replied %q %q (%v), want a payload-free ok", reply.Kind, reply.Data, err)
	}
	// A raw handler sees the bytes as they came, decodable or not.
	if reply, err := h.Handle(nil, Message{Kind: "raw", Data: []byte("{")}); err != nil || string(reply.Data) != "{" {
		t.Errorf("raw replied %q (%v)", reply.Data, err)
	}
}

func TestHandlersRefuseUnknownKindsAndBadPayloads(t *testing.T) {
	called := false
	h := Handlers{}
	On(h, "add", func(*Context, struct{ A int }) (int, error) { called = true; return 0, nil })
	if _, err := h.Handle(nil, Message{Kind: "dance"}); !errors.Is(err, ErrUnknownKind) || !strings.Contains(err.Error(), `"dance"`) {
		t.Errorf("unknown kind: err = %v, want ErrUnknownKind naming it", err)
	}
	if _, err := h.Handle(nil, Message{Kind: "add", Data: []byte("{")}); err == nil || !strings.Contains(err.Error(), "bad add") {
		t.Errorf("bad payload: err = %v, want one naming the kind", err)
	}
	if called {
		t.Error("the handler ran on a payload that does not decode")
	}
}
