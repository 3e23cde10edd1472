package buyerserver

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
	"agentrec/internal/recommend"
)

// A returning MBA is authenticated from its header before its bytes go
// anywhere: a forged token, nonce or challenge response, or a header
// rewritten to name another consumer or task kind than the one dispatched,
// is rejected — the waiter's result is flagged AuthFailed, which RunTask
// reports as ErrAuthFailed — and the BRA never hears of it. The intact row
// shows the probe would see the BRA if it did.
func TestTamperedMBANeverReachesBRA(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*mbaHeader)
		reject bool
	}{
		{"intact", func(*mbaHeader) {}, false},
		{"token", func(h *mbaHeader) { h.Token += "x" }, true},
		{"nonce", func(h *mbaHeader) { h.Nonce = "replayed" }, true},
		{"response", func(h *mbaHeader) { h.Response = "forged" }, true},
		{"user", func(h *mbaHeader) { h.UserID = "bob" }, true},
		{"kind", func(h *mbaHeader) { h.Spec.Kind = TaskBuy }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMechanism(t, 1)
			m.user(t, "alice")
			s := m.srv
			const taskID = "task-home"
			id := mbaID(taskID)
			nonce, err := s.challenger.Challenge(id)
			if err != nil {
				t.Fatal(err)
			}
			dispatched := MBARecord{MBAID: id, TaskID: taskID, UserID: "alice", Kind: string(TaskQuery), Status: "dispatched"}
			if err := s.bsmDB.EncodeJSON(bucketMBAs, id, dispatched); err != nil {
				t.Fatal(err)
			}
			st := mbaState{
				mbaHeader: mbaHeader{
					UserID:   "alice",
					Spec:     TaskSpec{TaskID: taskID, Kind: TaskQuery, Query: catalog.Query{Category: "laptop"}},
					Token:    s.tokens.Issue(id, string(TaskQuery), time.Hour),
					Nonce:    nonce,
					Response: s.challenger.Respond(nonce, id),
				},
				Results: []MarketResult{{Market: "market-1"}},
			}
			tc.tamper(&st.mbaHeader)
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			ch := s.registerPending(taskID)
			m.tracer.Reset()

			reply, err := s.Host().Send(testCtx(t), BSMAID, aglet.Message{Kind: kindMBAHome, Data: data})
			if err != nil {
				t.Fatal(err)
			}
			var ack mbaHomeReply
			if err := json.Unmarshal(reply.Data, &ack); err != nil {
				t.Fatal(err)
			}
			if ack.Accepted == tc.reject {
				t.Errorf("accepted = %v, want %v", ack.Accepted, !tc.reject)
			}
			select {
			case res := <-ch:
				if res.AuthFailed != tc.reject {
					t.Errorf("waiter's AuthFailed = %v, want %v", res.AuthFailed, tc.reject)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the waiter was never answered")
			}
			braSaw := false
			for _, ev := range m.tracer.Events() {
				if ev.From == "BRA" || ev.To == "BRA" {
					braSaw = true
				}
			}
			if braSaw == tc.reject {
				t.Errorf("BRA took part = %v, want %v\ntranscript:\n%s", braSaw, !tc.reject, m.tracer.Transcript("query"))
			}
		})
	}
}

// A consumer who logs out mid-trip gets the MBA's whole haul at the next
// login — every market's matches, as the waiter saw them — and the PA still
// learned from the query.
func TestOfflineQueryKeepsFullResults(t *testing.T) {
	m := newMechanism(t, 2)
	m.user(t, "alice")
	m.lb.SetPerHop(func(string) { time.Sleep(30 * time.Millisecond) })
	defer m.lb.SetPerHop(nil)

	done := make(chan TaskResult, 1)
	go func() {
		res, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "camera", Terms: []string{"lens"}})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	deadline := time.After(5 * time.Second)
	for !m.srv.Host().HasStored(braID("alice")) {
		select {
		case <-deadline:
			t.Fatal("task never started")
		case <-time.After(time.Millisecond):
		}
	}
	if err := m.srv.Logout(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if len(res.Results) != 2 {
		t.Fatalf("results = %+v, want both markets", res.Results)
	}
	for _, mr := range res.Results {
		if len(mr.Matches) == 0 {
			t.Errorf("no matches from %s", mr.Market)
		}
	}
	inbox, err := m.srv.Login(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 1 {
		t.Fatalf("inbox = %+v", inbox)
	}
	want, _ := json.Marshal(res.Results)
	got, _ := json.Marshal(inbox[0].Results)
	if string(got) != string(want) {
		t.Errorf("inbox results = %s\nwant %s", got, want)
	}
	p, err := m.srv.Engine().Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.PreferenceValue("camera") <= 0 {
		t.Error("PA did not observe the offline query")
	}
}

// The BRA records the figure's last step — 15 for a query, 14 for a buy —
// before it wakes the waiter, so it is in the trace when RunTask returns.
func TestFinalStepRecordedBeforeRunTaskReturns(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	for _, tc := range []struct {
		spec TaskSpec
		wf   string
		step int
	}{
		{TaskSpec{Kind: TaskQuery, Query: catalog.Query{Category: "laptop"}}, "query", 15},
		{TaskSpec{Kind: TaskBuy, ProductID: "market-1:lap1"}, "buy", 14},
	} {
		m.tracer.Reset()
		if _, err := m.srv.RunTask(testCtx(t), "alice", tc.spec); err != nil {
			t.Fatal(err)
		}
		events := m.tracer.Events()
		last := events[len(events)-1]
		if last.Workflow != tc.wf || last.Step != tc.step || last.From != "BRA" || last.To != "Buyer" {
			t.Errorf("%s: last event at return = %v, want step %d BRA → Buyer", tc.wf, last, tc.step)
		}
	}
}

// On a quiet platform a query task answers exactly what the engine's two
// reads answer when called separately: sharing one snapshot and one
// neighbour search changes no answer.
func TestQueryTaskAnswersEqualSeparateReads(t *testing.T) {
	m := newMechanism(t, 2)
	m.user(t, "alice")
	m.user(t, "bob")
	ctx := testCtx(t)
	q := catalog.Query{Category: "laptop", Terms: []string{"ssd"}}
	for _, user := range []string{"alice", "bob"} {
		if _, err := m.srv.Query(ctx, user, q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.srv.Buy(ctx, "bob", "market-1:lap2", 0, false); err != nil {
		t.Fatal(err)
	}

	res, err := m.srv.Query(ctx, "alice", q)
	if err != nil {
		t.Fatal(err)
	}
	eng := m.srv.Engine()
	recs, err := eng.RecommendForQuery("alice", res.AllMatches(), 10)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := eng.Recommend(recommend.StrategyAuto, "alice", q.Category, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(cross) == 0 {
		t.Fatalf("nothing to compare: re-rank %+v, cross-sell %+v", recs, cross)
	}
	if !reflect.DeepEqual(res.Recommendations, recs) {
		t.Errorf("task re-rank = %+v\nseparate read = %+v", res.Recommendations, recs)
	}
	if !reflect.DeepEqual(res.CrossSell, cross) {
		t.Errorf("task cross-sell = %+v\nseparate read = %+v", res.CrossSell, cross)
	}
}
