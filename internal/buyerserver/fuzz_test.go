package buyerserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
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
	f.Add(bytes.Replace(intact, []byte(`"results":[{"market":"market-1"}]`), []byte(`"results":[{"market":"m","matches":{"x":1}}]`), 1))

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

// httpRoutes are the POST routes FuzzHTTPBodies sends its bodies to.
var httpRoutes = []string{"/users", "/login", "/logout", "/tasks"}

// FuzzHTTPBodies posts arbitrary bodies to the web interface's POST routes
// on a one-market mechanism where alice is registered and logged in.
// Nothing panics, and after any /users request UserDB holds an account for
// the id the body names only if the engine holds that consumer's profile:
// registration never half-creates a consumer. With oversize set, the body
// is led by more than maxBodyBytes of JSON whitespace, so it runs past the
// bound whatever follows while the input the fuzzer mutates stays small;
// every route answers it 413 before any agent sees it.
func FuzzHTTPBodies(f *testing.F) {
	f.Add(uint8(0), false, []byte(`{"user_id":"bob"}`))
	f.Add(uint8(0), false, []byte(`{"user_id":"a\u0000b"}`))
	f.Add(uint8(0), true, []byte(`{"user_id":"carol"}`))
	f.Add(uint8(1), false, []byte(`{"user_id":"alice"}`))
	f.Add(uint8(2), false, []byte(`{"user_id":"alice"}`))
	f.Add(uint8(3), false, []byte(`{"user_id":"alice","spec":{"kind":"query","query":{"category":"laptop"}}}`))
	f.Add(uint8(3), false, []byte(`{"user_id":"alice","spec":{"kind":"buy","product_id":"lap1"}}`))
	f.Add(uint8(3), true, []byte(`{"user_id":"alice","spec":{"kind":"query","query":{"category":"laptop"}}}`))

	m := newMechanism(f, 1)
	m.user(f, "alice")
	padding := bytes.Repeat([]byte(" "), maxBodyBytes+1)

	f.Fuzz(func(t *testing.T, route uint8, oversize bool, body []byte) {
		path := httpRoutes[int(route)%len(httpRoutes)]
		var sent io.Reader = bytes.NewReader(body)
		if oversize {
			sent = io.MultiReader(bytes.NewReader(padding), sent)
		}
		status := m.post(path, sent)
		if oversize && status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s answered a body past the bound %d, want 413: %q", path, status, body)
		}
		if path != "/users" || oversize {
			return
		}
		var req userReq
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || req.UserID == "" {
			return
		}
		if m.hasAccount(t, req.UserID) {
			if _, err := m.srv.engine.Profile(req.UserID); err != nil {
				t.Fatalf("UserDB holds an account for %q without an engine profile (%v): %q", req.UserID, err, body)
			}
		}
	})
}
