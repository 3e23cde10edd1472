package atp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/security"
)

// counterAgent counts handled messages in its serialized state.
type counterAgent struct {
	aglet.Base
	mu sync.Mutex
	N  int
}

func (a *counterAgent) HandleMessage(_ *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	a.mu.Lock()
	a.N++
	n := a.N
	a.mu.Unlock()
	data, _ := json.Marshal(map[string]int{"n": n})
	return aglet.Message{Kind: "count", Data: data}, nil
}

func (a *counterAgent) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.Marshal(map[string]int{"n": a.N})
}

func (a *counterAgent) SetState(data []byte) error {
	var s map[string]int
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	a.mu.Lock()
	a.N = s["n"]
	a.mu.Unlock()
	return nil
}

func reg() *aglet.Registry {
	r := aglet.NewRegistry()
	r.Register("counter", func() aglet.Aglet { return &counterAgent{} })
	return r
}

func key() *security.Signer { return security.NewSigner([]byte("shared-platform-key")) }

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// startHost brings up a host with an ATP server and returns both.
func startHost(t *testing.T, name string) (*aglet.Host, *Server) {
	t.Helper()
	h := aglet.NewHost(name, reg())
	srv, err := Serve(h, key(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return h, srv
}

func TestPing(t *testing.T) {
	_, srv := startHost(t, "h1")
	c := NewClient(key())
	if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
		t.Fatal(err)
	}
}

func TestCallOverTCP(t *testing.T) {
	h2, srv := startHost(t, "h2")
	h2.Create("counter", "a1", nil)

	c := NewClient(key())
	reply, err := c.Call(testCtx(t), srv.Addr(), "a1", aglet.Message{Kind: "inc"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "count" || !strings.Contains(string(reply.Data), `"n":1`) {
		t.Errorf("reply = %+v", reply)
	}
}

func TestDispatchOverTCP(t *testing.T) {
	client := NewClient(key())
	// h1 is wired to the network: its transport dials real TCP addresses.
	h1 := aglet.NewHost("h1", reg(), aglet.WithTransport(client))
	defer h1.Close()
	h2, srv := startHost(t, "h2")

	h1.Create("counter", "mover", nil)
	// Bump the counter so we can prove state travelled.
	if _, err := h1.Send(testCtx(t), "mover", aglet.Message{}); err != nil {
		t.Fatal(err)
	}
	if err := h1.Dispatch(testCtx(t), "mover", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if h1.Has("mover") {
		t.Error("agent still on origin after dispatch")
	}
	if !h2.Has("mover") {
		t.Fatal("agent did not arrive")
	}
	reply, err := h2.Send(testCtx(t), "mover", aglet.Message{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reply.Data), `"n":2`) {
		t.Errorf("state lost in flight: %s", reply.Data)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	h2, srv := startHost(t, "h2")
	h2.Create("counter", "a1", nil)

	c := NewClient(security.NewSigner([]byte("wrong-key")))
	_, err := c.Call(testCtx(t), srv.Addr(), "a1", aglet.Message{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if !strings.Contains(err.Error(), "signature") {
		t.Errorf("err %q should mention signature", err)
	}
}

func TestCallMissingAgent(t *testing.T) {
	_, srv := startHost(t, "h2")
	c := NewClient(key())
	_, err := c.Call(testCtx(t), srv.Addr(), "ghost", aglet.Message{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestDispatchUnknownType(t *testing.T) {
	_, srv := startHost(t, "h2")
	c := NewClient(key())
	err := c.Dispatch(testCtx(t), srv.Addr(), aglet.Image{Type: "alien", ID: "x"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestDialFailure(t *testing.T) {
	c := NewClient(key())
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	// Port 1 on localhost is almost certainly closed.
	if err := c.Ping(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("Ping to closed port succeeded")
	}
}

func TestGarbageFrameHandled(t *testing.T) {
	_, srv := startHost(t, "h2")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid length prefix, invalid JSON.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 7)
	conn.Write(hdr[:])
	conn.Write([]byte("garbage"))
	// The server must reply with an error frame rather than hang or crash.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := readFrame(conn, &resp); err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("resp = %+v, want error", resp)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	_, srv := startHost(t, "h2")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	conn.Write(hdr[:])
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := readFrame(conn, &resp); err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if resp.OK {
		t.Error("oversize frame accepted")
	}
}

func TestServerCloseIdempotentAndStopsAccepting(t *testing.T) {
	_, srv := startHost(t, "h2")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c := NewClient(key())
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := c.Ping(ctx, srv.Addr()); err == nil {
		t.Fatal("Ping succeeded after Close")
	}
}

func TestClientStats(t *testing.T) {
	h2, srv := startHost(t, "h2")
	h2.Create("counter", "a1", nil)
	c := NewClient(key())
	c.Call(testCtx(t), srv.Addr(), "a1", aglet.Message{Data: []byte("xxxx")})
	c.Dispatch(testCtx(t), srv.Addr(), aglet.Image{Type: "counter", ID: "fresh", State: []byte(`{"n":5}`)})

	d, calls, sent := c.Stats()
	if d != 1 || calls != 1 {
		t.Errorf("Stats = %d dispatches, %d calls", d, calls)
	}
	// Payload bytes only, however many connections carried them: the call's
	// "xxxx" and its `{"n":1}` reply, then the dispatched image's state.
	if want := int64(len("xxxx") + len(`{"n":1}`) + len(`{"n":5}`)); sent != want {
		t.Errorf("bytesSent = %d, want %d", sent, want)
	}
}

func TestConcurrentCalls(t *testing.T) {
	h2, srv := startHost(t, "h2")
	h2.Create("counter", "a1", nil)
	c := NewClient(key())
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(testCtx(t), srv.Addr(), "a1", aglet.Message{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	reply, _ := c.Call(testCtx(t), srv.Addr(), "a1", aglet.Message{})
	if !strings.Contains(string(reply.Data), `"n":33`) {
		t.Errorf("final count = %s, want 33", reply.Data)
	}
}

// TestJournalFrame exercises the engine journal-stream op: a handler
// echoes, the client round-trips kind and payload, and a host with no
// handler rejects.
func TestJournalFrame(t *testing.T) {
	_, srv := startHost(t, "hj")
	srv.SetJournalHandler(func(kind string, data []byte) ([]byte, error) {
		if kind == "boom" {
			return nil, errors.New("handler exploded")
		}
		return append([]byte(kind+":"), data...), nil
	})

	c := NewClient(key())
	out, err := c.Journal(testCtx(t), srv.Addr(), "tail", []byte(`{"shard":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(out), `tail:{"shard":3}`; got != want {
		t.Fatalf("journal reply = %q, want %q", got, want)
	}
	if _, err := c.Journal(testCtx(t), srv.Addr(), "boom", nil); err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("handler error not surfaced: %v", err)
	}

	// A host without a journal handler rejects the frame.
	_, bare := startHost(t, "hj2")
	if _, err := c.Journal(testCtx(t), bare.Addr(), "tail", nil); err == nil || !strings.Contains(err.Error(), "no journal handler") {
		t.Fatalf("bare host accepted journal frame: %v", err)
	}
}

// TestJournalFrameSigned pins that journal frames are under the same HMAC
// gate as agent traffic: a client with the wrong platform key is rejected.
func TestJournalFrameSigned(t *testing.T) {
	_, srv := startHost(t, "hjs")
	srv.SetJournalHandler(func(string, []byte) ([]byte, error) { return nil, nil })
	bad := NewClient(security.NewSigner([]byte("not-the-platform-key")))
	if _, err := bad.Journal(testCtx(t), srv.Addr(), "tail", nil); err == nil || !strings.Contains(err.Error(), "signature rejected") {
		t.Fatalf("wrong-key journal frame not rejected: %v", err)
	}
}

// BenchmarkJournalRoundTrip is one forwarded write's worth of transport: a
// 2 KB journal frame to a loopback server and its ack. dials/op is what the
// kept-alive connections are for: 1 means every frame paid a TCP dial.
func BenchmarkJournalRoundTrip(b *testing.B) {
	h := aglet.NewHost("bench", reg())
	defer h.Close()
	srv, err := Serve(h, key(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.SetJournalHandler(func(string, []byte) ([]byte, error) { return []byte(`{}`), nil })
	c := NewClient(key())
	defer c.Close()
	payload := bytes.Repeat([]byte("x"), 2048)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Journal(ctx, srv.Addr(), "set-profiles", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	dials, _ := c.ConnStats()
	b.ReportMetric(float64(dials)/float64(b.N), "dials/op")
}
