package buyerserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"agentrec/internal/ops"
	"agentrec/internal/recommend"
)

// This file is HttpA's observability surface: the live event stream
// (GET /events, SSE or NDJSON) and the unified stats snapshot
// (GET /metrics/snapshot), both speaking the ops model.

// WithEventBus exposes bus on the server's HTTP surface: GET /events
// streams it (SSE or NDJSON) with ?kinds= filtering and Last-Event-ID
// resume. Without it the endpoint answers 404.
func WithEventBus(bus *ops.Bus) Option {
	return func(s *Server) { s.events = bus }
}

// WithMetrics makes GET /metrics/snapshot answer with fn's snapshot — in a
// platform deployment, the whole-platform view (platform.Platform.Metrics).
// Without it the endpoint answers with this server's engine alone.
func WithMetrics(fn func() ops.Snapshot) Option {
	return func(s *Server) { s.metrics = fn }
}

// metricsSnapshot is the /metrics/snapshot payload: the platform view when
// wired, this engine's slice of the ops model otherwise.
func (s *Server) metricsSnapshot() ops.Snapshot {
	if s.metrics != nil {
		return s.metrics()
	}
	return ops.NewSnapshot(recommend.ServerSnapshot(0, s.engine, nil))
}

func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// handleEvents streams the platform's event plane:
//
//	GET /events?kinds=journal,lag        filter to listed kinds (default all)
//	Accept: text/event-stream            SSE framing (also ?format=sse)
//	Last-Event-ID: <seq>                 resume after a disconnect (also ?after=)
//
// Default framing is NDJSON, one ops.Event per line. In SSE framing every
// event carries its bus sequence as the SSE id, so a reconnecting client's
// Last-Event-ID resumes exactly: events still in the bus's replay ring are
// redelivered gap- and duplicate-free; events already pruned surface as one
// `dropped` marker first. A consumer slower than the stream loses oldest
// events the same way — marked, never silently.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.events == nil {
		writeJSON(w, http.StatusNotFound, httpError{Error: "event plane disabled (start the platform with events enabled)"})
		return
	}
	opt := ops.SubscribeOptions{}
	if raw := r.URL.Query().Get("kinds"); raw != "" {
		for _, k := range strings.Split(raw, ",") {
			kind := ops.Kind(strings.TrimSpace(k))
			if !ops.ValidKind(kind) {
				writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("unknown event kind %q", kind)})
				return
			}
			opt.Kinds = append(opt.Kinds, kind)
		}
	}
	if lastID := firstOf(r.Header.Get("Last-Event-ID"), r.URL.Query().Get("after")); lastID != "" {
		after, err := strconv.ParseUint(lastID, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("bad Last-Event-ID %q", lastID)})
			return
		}
		opt.Resume = true
		opt.AfterSeq = after
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, httpError{Error: "response writer cannot stream"})
		return
	}
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub := s.events.Subscribe(opt)
	defer sub.Close()
	ctx := r.Context()
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			return // client disconnected or bus closed
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if sse {
			// Synthetic drop markers carry no bus seq; omitting the id line
			// keeps the client's Last-Event-ID pointing at real events.
			if ev.Seq != 0 {
				fmt.Fprintf(w, "id: %d\n", ev.Seq)
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
		} else {
			w.Write(data)
			w.Write([]byte("\n"))
		}
		flusher.Flush()
	}
}

func firstOf(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}
