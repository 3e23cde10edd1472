package buyerserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post sends body to the mechanism's web interface at path and returns the
// response status.
func (m *mechanism) post(path string, body io.Reader) int {
	rec := httptest.NewRecorder()
	m.srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec.Code
}

// hasAccount reports whether UserDB holds an account for userID.
func (m *mechanism) hasAccount(t testing.TB, userID string) bool {
	t.Helper()
	ok, err := m.srv.userDB.Has(bucketUsers, userID)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// A consumer id the engine refuses (here one holding a NUL byte) is a bad
// request, and it leaves no account: registering it again is refused the
// same way rather than as a duplicate, and it cannot log in.
func TestRegisterRefusedIDLeavesNoAccount(t *testing.T) {
	m := newMechanism(t, 1)
	const body = `{"user_id":"a\u0000b"}`
	for i := 0; i < 2; i++ {
		if got := m.post("/users", strings.NewReader(body)); got != http.StatusBadRequest {
			t.Fatalf("register #%d: status = %d, want 400", i+1, got)
		}
	}
	if got := m.post("/login", strings.NewReader(body)); got != http.StatusNotFound {
		t.Errorf("login: status = %d, want 404", got)
	}
	if m.hasAccount(t, "a\x00b") {
		t.Error("UserDB holds an account for an id the engine refused")
	}
	if _, err := m.srv.engine.Profile("a\x00b"); err == nil {
		t.Error("engine holds a profile for a refused id")
	}
}

// Every JSON body is read up to maxBodyBytes: a longer one is answered 413
// and changes nothing.
func TestHTTPBodyBounded(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	huge := strings.Repeat("x", 4<<20)
	for _, c := range []struct{ path, body string }{
		{"/users", `{"user_id":"` + huge + `"}`},
		{"/login", `{"user_id":"` + huge + `"}`},
		{"/logout", `{"user_id":"` + huge + `"}`},
		{"/tasks", `{"user_id":"alice","spec":{"kind":"query","query":{"category":"` + huge + `"}}}`},
	} {
		if got := m.post(c.path, strings.NewReader(c.body)); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d B body: status = %d, want 413", c.path, len(c.body), got)
		}
	}
	if m.hasAccount(t, huge) {
		t.Error("an oversized id was registered")
	}
	if got := m.post("/tasks", strings.NewReader(`{"user_id":"alice","spec":{"kind":"query","query":{"category":"laptop"}}}`)); got != http.StatusOK {
		t.Errorf("a task within the bound: status = %d, want 200", got)
	}
}
