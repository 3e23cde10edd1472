package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"agentrec/internal/atp"
	"agentrec/internal/catalog"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/replnet"
	"agentrec/internal/security"
)

// freeAddr reserves a loopback port and returns it as host:port. The
// listener is closed so the daemon can rebind; tests here run sequentially
// so the window is harmless.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func portOf(t *testing.T, addr string) int {
	t.Helper()
	_, p, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// startDaemon runs the daemon until cancel, delivering run's error.
func startDaemon(ctx context.Context, cfg daemonConfig) chan error {
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, cfg) }()
	return errCh
}

// waitHTTP polls url until the daemon answers 200.
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon never answered at %s", url)
}

// TestRunShutdownRestart is the clean-shutdown contract: cancelling the
// signal context (what SIGTERM does through signal.NotifyContext) makes run
// return nil with every listener and goroutine released — proven by
// starting a second daemon on the exact same ports.
func TestRunShutdownRestart(t *testing.T) {
	cfg := daemonConfig{
		markets:   1,
		coordAddr: freeAddr(t),
		marketIP:  "127.0.0.1",
		basePort:  portOf(t, freeAddr(t)),
		buyerAddr: freeAddr(t),
		httpAddr:  freeAddr(t),
		key:       "test-platform-key",
		shards:    4,
		events:    true, // shutdown must also drain the event plane
		verbose:   true, // and stop the trace watcher
	}
	for round := 0; round < 2; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		errCh := startDaemon(ctx, cfg)
		waitHTTP(t, "http://"+cfg.httpAddr+"/metrics/snapshot")
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("round %d: run returned %v, want nil", round, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: run did not return after cancel", round)
		}
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id   uint64
	kind string
	ev   ops.Event
}

// sseStream reads frames off a live /events SSE response.
type sseStream struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openSSE(t *testing.T, base string, lastID uint64) *sseStream {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/events?format=sse&after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.URL.RawQuery = "format=sse"
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /events = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	return &sseStream{resp: resp, sc: sc}
}

func (s *sseStream) next(t *testing.T) sseFrame {
	t.Helper()
	cur := sseFrame{}
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			return cur
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.ev); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("SSE stream ended: %v", s.sc.Err())
	return cur
}

func (s *sseStream) close() { s.resp.Body.Close() }

func postJSON(t *testing.T, url string, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d", url, resp.StatusCode)
	}
}

// userOwnedBy generates a username whose community shard is owned by the
// wanted server, matching the daemons' positional ownership map.
func userOwnedBy(t *testing.T, probe *recommend.Engine, owner, servers int, salt string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("user-%s-%d", salt, i)
		if recommend.OwnerOf(probe.ShardOf(name), servers) == owner {
			return name
		}
	}
	t.Fatal("no username found for owner")
	return ""
}

// burstProfile is one journal record of a few hundred bytes — well under
// the shrunken tail budget (so pulls serve records, not paged snapshots)
// but big enough that a burst of them takes several pulls to drain.
func burstProfile(user string) *profile.Profile {
	terms := make(map[string]float64, 8)
	for i := 0; i < 8; i++ {
		terms[fmt.Sprintf("interest-term-%02d-%s", i, user)] = float64(i+1) / 64
	}
	return &profile.Profile{
		UserID:     user,
		Alpha:      0.5,
		Categories: map[string]*profile.Category{"laptop": {Name: "laptop", Terms: terms}},
		Observed:   1,
		UpdatedAt:  time.Now(),
	}
}

// TestEventsOverTCP is the event plane end to end: two replicated platformd
// daemons on real sockets, the second one's SSE stream showing journal
// appends, replication lag rising and draining, recommendation deltas, and
// heartbeat snapshots — then a disconnect and a Last-Event-ID resume with
// no gap and no duplicate.
func TestEventsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("two TCP daemons")
	}
	// Shrink the tail reply budget so the write burst below takes several
	// pulls to drain, making lag observable between them. Individual
	// records must stay under the budget or tails degrade to paged
	// snapshots (which pin at head and never observe lag).
	restore := replnet.SetMaxTailBytes(4 << 10)
	defer restore()

	buyer1, buyer2 := freeAddr(t), freeAddr(t)
	peers := []string{buyer1, buyer2}
	const shards = 4
	mk := func(self int, buyerAddr string) daemonConfig {
		return daemonConfig{
			markets:        1,
			coordAddr:      freeAddr(t),
			marketIP:       "127.0.0.1",
			basePort:       portOf(t, freeAddr(t)),
			buyerAddr:      buyerAddr,
			httpAddr:       freeAddr(t),
			key:            "test-platform-key",
			shards:         shards,
			events:         true,
			eventsInterval: 100 * time.Millisecond,
			repl:           &replConfig{servers: peers, self: self, interval: 150 * time.Millisecond},
		}
	}
	cfg1, cfg2 := mk(0, buyer1), mk(1, buyer2)

	ctx, cancel := context.WithCancel(context.Background())
	err1, err2 := startDaemon(ctx, cfg1), startDaemon(ctx, cfg2)
	defer func() {
		cancel()
		for _, ch := range []chan error{err1, err2} {
			select {
			case err := <-ch:
				if err != nil {
					t.Errorf("daemon returned %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Error("daemon did not stop")
			}
		}
	}()
	base1 := "http://" + cfg1.httpAddr
	base2 := "http://" + cfg2.httpAddr
	waitHTTP(t, base1+"/metrics/snapshot")
	waitHTTP(t, base2+"/metrics/snapshot")

	// Wait for server 2's bootstrap pulls to finish (every tailed shard has
	// an epoch cursor). Bursting before that would be absorbed by the
	// bootstrap snapshot in one gulp and lag would never be observable.
	bootDeadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base2 + "/metrics/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		var snap ops.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		booted := len(snap.Servers) == 1 && snap.Servers[0].Replication != nil
		if booted {
			for _, sh := range snap.Servers[0].Replication.Shards {
				if sh.Epoch == 0 {
					booted = false
				}
			}
		}
		// Its tails go to one peer every 150 ms: from the second on they
		// ride the connection the first one dialled.
		if tr := snap.Servers[0].Transport; booted && tr != nil && tr.Dials > 0 && tr.Reuses > 0 {
			break
		}
		if time.Now().After(bootDeadline) {
			t.Fatalf("server 2 never bootstrapped its tailed shards over kept-alive connections: %+v", snap.Servers)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Watch server 2's plane: it owns the odd shards and tails the even
	// ones from server 1.
	stream := openSSE(t, base2, 0)
	defer stream.close()

	// A consumer on server 2's own shards: her buy journals locally and
	// her recommendations produce a delta.
	probe := recommend.NewEngine(catalog.New(), recommend.WithShards(shards))
	local := userOwnedBy(t, probe, 1, len(peers), "local")
	postJSON(t, base2+"/users", map[string]string{"user_id": local})
	postJSON(t, base2+"/login", map[string]string{"user_id": local})
	postJSON(t, base2+"/tasks", map[string]any{
		"user_id": local,
		"spec":    map[string]any{"kind": "buy", "product_id": "lap-ultra"},
	})
	resp, err := http.Get(base2 + "/recommendations?user=" + local + "&category=laptop")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A burst of profile installs on server 1's shards, written straight to
	// the owner the way a forwarding router would. Server 2 tails them
	// through the shrunken budget: lag rises, then drains.
	client := atp.NewClient(security.NewSigner([]byte(cfg1.key)))
	// A writer without a table stamps the static epoch 1, the map the
	// daemons hold: every replicated daemon's wire is fenced.
	writer := replnet.NewWriter(ctx, client, buyer1)
	for i := 0; i < 60; i++ {
		remote := userOwnedBy(t, probe, 0, len(peers), fmt.Sprintf("remote-%d", i))
		if err := writer.SetProfile(burstProfile(remote)); err != nil {
			t.Fatal(err)
		}
	}

	// Read the stream until every contract is witnessed: journal events,
	// a lag transition away from zero and one back to it, a rec delta, and
	// a heartbeat snapshot. The stream is replayed from the start (after=0)
	// so nothing published before the subscription is missed.
	var sawJournal, sawRecDelta, sawLagUp, sawLagDown, sawSnapshot bool
	var lastID uint64
	kindCounts := map[string]int{}
	deadline := time.After(60 * time.Second)
	for !(sawJournal && sawRecDelta && sawLagUp && sawLagDown && sawSnapshot) {
		select {
		case <-deadline:
			var snap bytes.Buffer
			if resp, err := http.Get(base2 + "/metrics/snapshot"); err == nil {
				snap.ReadFrom(resp.Body)
				resp.Body.Close()
			}
			t.Fatalf("timed out: journal=%v recDelta=%v lagUp=%v lagDown=%v snapshot=%v\nkinds seen: %v\nserver2 metrics: %s",
				sawJournal, sawRecDelta, sawLagUp, sawLagDown, sawSnapshot, kindCounts, snap.String())
		default:
		}
		fr := stream.next(t)
		kindCounts[fr.kind]++
		if fr.id != 0 {
			if fr.id <= lastID {
				t.Fatalf("SSE ids not increasing: %d after %d", fr.id, lastID)
			}
			lastID = fr.id
		}
		switch ops.Kind(fr.kind) {
		case ops.KindJournal:
			sawJournal = true
			if fr.ev.Journal.Server != 1 {
				t.Fatalf("journal event from server %d on server 2's bus", fr.ev.Journal.Server)
			}
		case ops.KindRecDelta:
			sawRecDelta = true
			if fr.ev.RecDelta.UserID != local {
				t.Fatalf("rec delta for %q, want %q", fr.ev.RecDelta.UserID, local)
			}
		case ops.KindLag:
			if fr.ev.Lag.PrevLagRecords == 0 && fr.ev.Lag.LagRecords > 0 {
				sawLagUp = true
			}
			if sawLagUp && fr.ev.Lag.LagRecords == 0 {
				sawLagDown = true
			}
			if owner := recommend.OwnerOf(fr.ev.Lag.Shard, len(peers)); owner != 0 {
				t.Fatalf("lag event for shard %d owned by %d; server 2 only tails server 1", fr.ev.Lag.Shard, owner)
			}
		case ops.KindSnapshot:
			sawSnapshot = true
			if fr.ev.Snapshot == nil || len(fr.ev.Snapshot.Servers) != 1 || fr.ev.Snapshot.Servers[0].Server != 1 {
				t.Fatalf("heartbeat snapshot = %+v, want server 1's view", fr.ev.Snapshot)
			}
			if fr.ev.Snapshot.Servers[0].Replication == nil {
				t.Fatal("heartbeat snapshot missing replication view")
			}
		case ops.KindDropped:
			t.Fatal("drop marker: the test consumer should keep up within the ring")
		}
	}
	stream.close() // disconnect mid-stream

	// Resume with Last-Event-ID: the next events continue exactly after the
	// last seen id — no gap, no duplicate, no drop marker — and keep
	// flowing (heartbeats guarantee traffic).
	resumed := openSSE(t, base2, lastID)
	defer resumed.close()
	want := lastID
	for i := 0; i < 3; i++ {
		fr := resumed.next(t)
		if fr.id == 0 {
			t.Fatalf("resumed frame %d is a drop marker; all events fit the replay ring", i)
		}
		want++
		if fr.id != want {
			t.Fatalf("resumed frame %d: id %d, want %d (gap or duplicate)", i, fr.id, want)
		}
	}
}
