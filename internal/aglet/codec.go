package aglet

import (
	"encoding/json"
	"errors"
	"fmt"
)

// This file is the agent plane's one codec: every message payload and every
// agent state image is turned into bytes by Encode and back by Decode, and
// nowhere else. The encoding is JSON.

// ErrUnknownKind reports a message whose kind the receiving agent has no
// handler for.
var ErrUnknownKind = errors.New("aglet: agent does not understand message kind")

// Encode returns a message of kind carrying v. An agent's State encodes its
// state image the same way, under its type name, and keeps the Data.
func Encode(kind string, v any) (Message, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return Message{}, fmt.Errorf("aglet: encoding %s: %w", kind, err)
	}
	return Message{Kind: kind, Data: data}, nil
}

// Decode fills v from msg's payload.
func Decode(msg Message, v any) error {
	if err := json.Unmarshal(msg.Data, v); err != nil {
		return fmt.Errorf("aglet: bad %s: %w", msg.Kind, err)
	}
	return nil
}

// Raw is a value kept in the codec's bytes, for a carrier that passes it on
// unread: a field of type Raw encodes as the bytes it holds, and whoever
// reads the value decodes them with Decode. A null or an empty list decodes
// to an empty Raw, so an omitempty Raw field is dropped wherever the same
// field decoded into a slice would be.
type Raw []byte

// MarshalJSON returns the bytes r holds, or null for an empty r.
func (r Raw) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return r, nil
}

// UnmarshalJSON keeps a copy of data; null and [] leave r empty.
func (r *Raw) UnmarshalJSON(data []byte) error {
	if s := string(data); s == "null" || s == "[]" {
		*r = nil
		return nil
	}
	*r = append(Raw(nil), data...)
	return nil
}

// Handlers is an agent's message table: the handler of each kind it
// understands. A handler filled in by hand sees the raw message (a
// pass-through, or a kind that carries no payload); On fills in a typed one.
type Handlers map[string]func(*Context, Message) (Message, error)

// On makes fn the handler of kind. The request payload is decoded into a
// Req, and fn's Rep is encoded as the reply under the same kind. A Rep of
// type Message is the reply as it stands: a payload-free acknowledgement, or
// another agent's reply passed on.
func On[Req, Rep any](h Handlers, kind string, fn func(*Context, Req) (Rep, error)) {
	h[kind] = func(ctx *Context, msg Message) (Message, error) {
		var req Req
		if err := Decode(msg, &req); err != nil {
			return Message{}, err
		}
		rep, err := fn(ctx, req)
		if err != nil {
			return Message{}, err
		}
		if reply, ok := any(rep).(Message); ok {
			return reply, nil
		}
		return Encode(kind, rep)
	}
}

// Handle answers msg with the handler of its kind.
func (h Handlers) Handle(ctx *Context, msg Message) (Message, error) {
	fn, ok := h[msg.Kind]
	if !ok {
		return Message{}, fmt.Errorf("%w %q", ErrUnknownKind, msg.Kind)
	}
	return fn(ctx, msg)
}
