package buyerserver

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"agentrec/internal/aglet"
)

const fuzzTask = "fuzz-task"

// homecoming is a returning MBA's frame for fuzzTask, with the placeholders
// $TOKEN, $NONCE and $RESPONSE where its credentials go.
func homecoming(user string, kind TaskKind) []byte {
	return []byte(`{"user_id":"` + user + `","spec":{"task_id":"` + fuzzTask + `","kind":"` + string(kind) +
		`","query":{"category":"laptop"}},"token":"$TOKEN","nonce":"$NONCE","response":"$RESPONSE",` +
		`"results":[{"market":"market-1"}]}`)
}

// FuzzMBAHome sends arbitrary bytes to a live BSMA as a returning Mobile
// Buyer Agent. Before each frame, alice's query task fuzzTask is dispatched
// again — its BSMDB record written, a fresh nonce issued — and the frame's
// credential placeholders are filled in with that dispatch's, so an intact
// homecoming is one the fuzzer can mutate. Nothing panics; a frame that
// does not present the issued nonce and a token this server signed never
// reaches the BRA or the PA, so the engine's consumers and the UserDB inbox
// are unchanged; and a frame the BSMA accepts names alice and a query.
func FuzzMBAHome(f *testing.F) {
	intact := homecoming("alice", TaskQuery)
	f.Add(intact)
	f.Add(homecoming("bob", TaskQuery))
	f.Add(homecoming("alice", TaskBuy))
	f.Add(intact[:len(intact)/2])
	f.Add([]byte(`{"spec":[]}`))
	f.Add(append([]byte(`{"user_id":"alice",`), homecoming("bob", TaskQuery)[1:]...))

	m := newMechanism(f, 1)
	m.user(f, "alice")
	s := m.srv
	id := mbaID(fuzzTask)
	inbox := func(t *testing.T) int {
		entries, err := s.userDB.Scan(bucketInbox, "")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		m.tracer.Reset()
		dispatched := MBARecord{MBAID: id, TaskID: fuzzTask, UserID: "alice", Kind: string(TaskQuery), Status: "dispatched"}
		if err := s.bsmDB.EncodeJSON(bucketMBAs, id, dispatched); err != nil {
			t.Fatal(err)
		}
		nonce, err := s.challenger.Challenge(id)
		if err != nil {
			t.Fatal(err)
		}
		// Consume the nonce if the frame did not, so none outlives its frame.
		defer s.challenger.VerifyResponse(id, nonce, "")
		frame = bytes.ReplaceAll(frame, []byte("$TOKEN"), []byte(s.tokens.Issue(id, string(TaskQuery), time.Hour)))
		frame = bytes.ReplaceAll(frame, []byte("$NONCE"), []byte(nonce))
		frame = bytes.ReplaceAll(frame, []byte("$RESPONSE"), []byte(s.challenger.Respond(nonce, id)))

		users, inboxBefore := s.engine.Users(), inbox(t)
		reply, sendErr := s.Host().Send(testCtx(t), BSMAID, aglet.Message{Kind: kindMBAHome, Data: frame})
		var ack mbaHomeReply
		accepted := sendErr == nil && json.Unmarshal(reply.Data, &ack) == nil && ack.Accepted

		var h mbaHeader
		issued := json.Unmarshal(frame, &h) == nil && h.Nonce == nonce
		if issued {
			_, err := s.tokens.Verify(h.Token, id)
			issued = err == nil
		}
		if !issued {
			if accepted {
				t.Fatalf("a homecoming without the issued credentials was accepted: %q", frame)
			}
			if got := s.engine.Users(); !slices.Equal(got, users) {
				t.Fatalf("engine consumers went from %v to %v: %q", users, got, frame)
			}
			if got := inbox(t); got != inboxBefore {
				t.Fatalf("UserDB inbox went from %d to %d entries: %q", inboxBefore, got, frame)
			}
		}
		if accepted && (h.UserID != "alice" || h.Spec.Kind != TaskQuery) {
			t.Fatalf("accepted a homecoming as %s's %s task, dispatched as alice's query: %q", h.UserID, h.Spec.Kind, frame)
		}
	})
}
