package buyerserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"agentrec/internal/recommend"
)

// HTTPHandler returns the web interface of the mechanism: "HttpA provides
// the Web interface, let users can use the browser to use all service of
// Buyer Agent Server" (§3.3). Routes:
//
//	POST /users            {"user_id": "..."}                  register
//	POST /login            {"user_id": "..."}                  login (returns offline inbox)
//	POST /logout           {"user_id": "..."}                  logout
//	POST /tasks            {"user_id": "...", "spec": {...}}   run a shopping task
//	GET  /recommendations  ?user=&category=&n=                 browse recommendations
//	GET  /events           ?kinds=&format=                     live event stream (SSE/NDJSON; events.go)
//	GET  /metrics/snapshot                                     unified ops.Snapshot
//
// Each route calls the Server method of the same operation, which enters
// the mechanism at HttpA; the shopping task route blocks until the Mobile
// Buyer Agent's round trip completes.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /users", s.handleAccount(s.Register))
	mux.HandleFunc("POST /login", s.handleLogin)
	mux.HandleFunc("POST /logout", s.handleAccount(s.Logout))
	mux.HandleFunc("POST /tasks", s.handleTask)
	mux.HandleFunc("GET /recommendations", s.handleRecommendations)
	mux.HandleFunc("GET /trending", s.handleTrending)
	mux.HandleFunc("GET /tiedsales", s.handleTiedSales)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /metrics/snapshot", s.handleMetricsSnapshot)
	return mux
}

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUserExists), errors.Is(err, ErrAlreadyOnline):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownUser), errors.Is(err, ErrNotLoggedIn):
		return http.StatusNotFound
	case errors.Is(err, ErrAuthFailed):
		return http.StatusForbidden
	case errors.Is(err, ErrUnknownMarket):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// userBody decodes a {"user_id": ...} body; on failure it answers 400
// itself and reports !ok.
func userBody(w http.ResponseWriter, r *http.Request) (userID string, ok bool) {
	var req userReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.UserID == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "body must be {\"user_id\": ...}"})
		return "", false
	}
	return req.UserID, true
}

func (s *Server) handleAccount(op func(context.Context, string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		userID, ok := userBody(w, r)
		if !ok {
			return
		}
		if err := op(r.Context(), userID); err != nil {
			writeJSON(w, statusFor(err), httpError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	userID, ok := userBody(w, r)
	if !ok {
		return
	}
	inbox, err := s.Login(r.Context(), userID)
	if err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, loginReply{Inbox: inbox})
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	var req struct {
		UserID string   `json:"user_id"`
		Spec   TaskSpec `json:"spec"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.UserID == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "body must be {\"user_id\": ..., \"spec\": {...}}"})
		return
	}
	if req.Spec.Kind == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "spec.kind is required"})
		return
	}
	res, err := s.RunTask(r.Context(), req.UserID, req.Spec)
	if err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// limitParam parses the optional ?n= listing limit (default 10). A bad
// value is answered 400 here and reported as !ok.
func limitParam(w http.ResponseWriter, r *http.Request) (n int, ok bool) {
	raw := r.URL.Query().Get("n")
	if raw == "" {
		return 10, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("bad n %q", raw)})
		return 0, false
	}
	return n, true
}

// handleTrending serves the "weekly hottest merchandise" listing (§5.2):
// GET /trending?window=168h&n=10.
func (s *Server) handleTrending(w http.ResponseWriter, r *http.Request) {
	window := 7 * 24 * time.Hour
	if raw := r.URL.Query().Get("window"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("bad window %q", raw)})
			return
		}
		window = parsed
	}
	n, ok := limitParam(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.engine.Trending(time.Now(), window, n))
}

// handleTiedSales serves frequently-bought-together associations (§5.2):
// GET /tiedsales?product=lap1&n=5.
func (s *Server) handleTiedSales(w http.ResponseWriter, r *http.Request) {
	product := r.URL.Query().Get("product")
	if product == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "product parameter required"})
		return
	}
	n, ok := limitParam(w, r)
	if !ok {
		return
	}
	ties := s.engine.TiedSales(product, 1, n)
	if ties == nil {
		ties = []recommend.TiedSale{}
	}
	writeJSON(w, http.StatusOK, ties)
}

func (s *Server) handleRecommendations(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "user parameter required"})
		return
	}
	n, ok := limitParam(w, r)
	if !ok {
		return
	}
	recs, err := s.Recommendations(user, r.URL.Query().Get("category"), n)
	if err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, recs)
}
