package main

import (
	"bytes"
	"context"
	"log"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"agentrec/internal/trace"
)

// syncBuffer is a log sink the daemon's goroutines and the test share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceRecorderIsBounded: a daemon's workflow recorder must not grow
// with the tasks it has served. Without -trace there is no recorder at all;
// with it, the watcher drains every step it prints.
func TestTraceRecorderIsBounded(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		name := "untraced"
		if verbose {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			logged := &syncBuffer{}
			log.SetOutput(logged)
			defer log.SetOutput(os.Stderr)

			built := make(chan *trace.Recorder, 1)
			cfg := daemonConfig{
				markets:   1,
				coordAddr: freeAddr(t),
				marketIP:  "127.0.0.1",
				basePort:  portOf(t, freeAddr(t)),
				buyerAddr: freeAddr(t),
				httpAddr:  freeAddr(t),
				key:       "test-platform-key",
				shards:    4,
				verbose:   verbose,
				onTracer:  func(r *trace.Recorder) { built <- r },
			}
			ctx, cancel := context.WithCancel(context.Background())
			errCh := startDaemon(ctx, cfg)
			defer func() {
				cancel()
				if err := <-errCh; err != nil {
					t.Errorf("run returned %v", err)
				}
			}()
			base := "http://" + cfg.httpAddr
			waitHTTP(t, base+"/metrics/snapshot")
			rec := <-built

			postJSON(t, base+"/users", map[string]string{"user_id": "alice"})
			postJSON(t, base+"/login", map[string]string{"user_id": "alice"})
			postJSON(t, base+"/tasks", map[string]any{
				"user_id": "alice",
				"spec":    map[string]any{"kind": "query", "query": map[string]string{"category": "laptop"}},
			})
			postJSON(t, base+"/tasks", map[string]any{
				"user_id": "alice",
				"spec":    map[string]any{"kind": "buy", "product_id": "lap-ultra"},
			})

			if !verbose {
				if n := rec.Len(); n != 0 {
					t.Fatalf("daemon without -trace holds %d workflow events after a query and a buy", n)
				}
				return
			}
			// Every step is printed by a watcher tick, and what was printed
			// is gone from the recorder.
			deadline := time.Now().Add(10 * time.Second)
			for !(strings.Contains(logged.String(), "step buy[1] ") && rec.Len() == 0) {
				if time.Now().After(deadline) {
					t.Fatalf("recorder still holds %d events after the watcher's ticks", rec.Len())
				}
				time.Sleep(20 * time.Millisecond)
			}
			if out := logged.String(); !strings.Contains(out, "step query[1] ") || strings.Count(out, "step buy[1] ") != 1 {
				t.Fatalf("watcher did not print each step once:\n%s", out)
			}
		})
	}
}
