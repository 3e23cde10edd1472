package buyerserver

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"agentrec/internal/catalog"
)

// mbaRecords counts the MBAs the BSMA has recorded as dispatched.
func mbaRecords(t *testing.T, m *mechanism) int {
	t.Helper()
	entries, err := m.srv.bsmDB.Scan(bucketMBAs, "")
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// An HTTP client chooses among the server's marketplaces, never an address
// of its own: a task whose itinerary names any other host is answered 400
// and no MBA leaves, so no MBA credentials are written to that host.
func TestHTTPTaskRefusesUnknownMarkets(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	ts := httptest.NewServer(m.srv.HTTPHandler())
	defer ts.Close()

	body := `{"user_id":"alice","spec":{"kind":"query","query":{"category":"laptop"},"markets":["127.0.0.1:1","nowhere"]}}`
	resp, err := http.Post(ts.URL+"/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	if n := mbaRecords(t, m); n != 0 {
		t.Errorf("%d MBA(s) dispatched for a refused itinerary", n)
	}
}

// RunTask refuses an itinerary with one host outside Markets, and keeps
// serving one inside it.
func TestRunTaskRefusesUnknownMarket(t *testing.T) {
	m := newMechanism(t, 2)
	m.user(t, "alice")
	ctx := testCtx(t)
	q := catalog.Query{Category: "laptop"}

	_, err := m.srv.RunTask(ctx, "alice", TaskSpec{Kind: TaskQuery, Query: q, Markets: []string{"market-2", "evil:1"}})
	if !errors.Is(err, ErrUnknownMarket) {
		t.Fatalf("err = %v, want ErrUnknownMarket", err)
	}
	if n := mbaRecords(t, m); n != 0 {
		t.Fatalf("%d MBA(s) dispatched for a refused itinerary", n)
	}
	res, err := m.srv.RunTask(ctx, "alice", TaskSpec{Kind: TaskQuery, Query: q, Markets: []string{"market-2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].Market != "market-2" || res.Results[0].Err != "" {
		t.Errorf("results = %+v, want market-2's answer alone", res.Results)
	}
}
