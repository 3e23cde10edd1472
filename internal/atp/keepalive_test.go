package atp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentrec/internal/security"
)

// forwarder relays TCP connections to a backend and counts them, so a test
// sees connections from outside the client's own counters.
type forwarder struct {
	ln      net.Listener
	accepts atomic.Int64
}

func forwardTo(t *testing.T, backend string) *forwarder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &forwarder{ln: ln}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepts.Add(1)
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			wg.Add(2)
			relay := func(dst, src net.Conn) {
				defer wg.Done()
				io.Copy(dst, src)
				dst.Close()
			}
			go relay(up, conn)
			go relay(conn, up)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return f
}

func (f *forwarder) addr() string { return f.ln.Addr().String() }

func echoJournal(kind string, data []byte) ([]byte, error) {
	return append([]byte(kind+":"), data...), nil
}

func wantConnStats(t *testing.T, c *Client, dials, reuses uint64) {
	t.Helper()
	if d, r := c.ConnStats(); d != dials || r != reuses {
		t.Errorf("ConnStats = %d dials, %d reuses; want %d, %d", d, r, dials, reuses)
	}
}

func idleCount(c *Client, dest string) int {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	return len(c.idle[dest])
}

func TestSequentialCallsShareOneConnection(t *testing.T) {
	_, srv := startHost(t, "h")
	srv.SetJournalHandler(echoJournal)
	fwd := forwardTo(t, srv.Addr())
	c := NewClient(key())
	defer c.Close()
	for i := 0; i < 50; i++ {
		msg := fmt.Sprintf("%d", i)
		out, err := c.Journal(testCtx(t), fwd.addr(), "k", []byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "k:"+msg {
			t.Fatalf("call %d answered %q", i, out)
		}
	}
	if n := fwd.accepts.Load(); n != 1 {
		t.Errorf("50 sequential calls opened %d connections, want 1", n)
	}
	wantConnStats(t, c, 1, 49)
}

// A server restarted between two calls has hung up the connection the client
// kept: the second call must notice before any reply and go out again on a
// fresh dial.
func TestRetryAfterServerRestart(t *testing.T) {
	h, srv := startHost(t, "h")
	addr := srv.Addr()
	c := NewClient(key())
	defer c.Close()
	if err := c.Ping(testCtx(t), addr); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	again, err := Serve(h, key(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if err := c.Ping(testCtx(t), addr); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	wantConnStats(t, c, 2, 1)
}

// The retry is for a kept connection found dead, once: a fresh connection
// that fails is the answer, and so is the retry's own failure.
func TestFreshConnectionFailureIsNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// The first connection answers one frame; after that every
			// frame read is met by hanging up.
			first := accepts.Add(1) == 1
			go func() {
				defer conn.Close()
				var req request
				if readFrame(conn, &req) != nil || !first {
					return
				}
				writeFrame(conn, response{OK: true})
				readFrame(conn, &req)
			}()
		}
	}()

	c := NewClient(key())
	defer c.Close()
	addr := ln.Addr().String()
	if err := c.Ping(testCtx(t), addr); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(testCtx(t), addr); err == nil {
		t.Fatal("ping answered by a server that hangs up")
	}
	if n := accepts.Load(); n != 2 {
		t.Errorf("dead kept connection: %d connections, want 2 (the kept one, one retry)", n)
	}
	if err := c.Ping(testCtx(t), addr); err == nil {
		t.Fatal("ping answered by a server that hangs up")
	}
	if n := accepts.Load(); n != 3 {
		t.Errorf("fresh connection hung up: %d connections, want 3 (no retry)", n)
	}
	wantConnStats(t, c, 3, 1)
}

func TestConnectionIdlePastClientLimitIsNotReused(t *testing.T) {
	_, srv := startHost(t, "h")
	c := NewClient(key())
	defer c.Close()
	if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	c.poolMu.Lock()
	c.idle[srv.Addr()][0].since = time.Now().Add(-clientIdle - time.Millisecond)
	c.poolMu.Unlock()
	if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	wantConnStats(t, c, 2, 0)
	if n := idleCount(c, srv.Addr()); n != 1 {
		t.Errorf("%d idle connections, want 1: the stale one closed, the new one kept", n)
	}
}

// The server ends a connection nobody uses by itself; a client that is never
// called again cannot.
func TestServerHangsUpIdleConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out serverIdle")
	}
	_, srv := startHost(t, "h")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(serverIdle + 2*time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on an idle connection: %v, want EOF", err)
	}
	if waited := time.Since(start); waited < serverIdle-100*time.Millisecond {
		t.Errorf("hung up after %v, before serverIdle", waited)
	}
}

func TestConcurrentCallersGetTheirOwnReplies(t *testing.T) {
	_, srv := startHost(t, "h")
	srv.SetJournalHandler(echoJournal)
	c := NewClient(key())
	defer c.Close()
	const callers, calls = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("caller %d call %d", g, i)
				out, err := c.Journal(testCtx(t), srv.Addr(), "k", []byte(msg))
				if err != nil {
					t.Error(err)
					return
				}
				if string(out) != "k:"+msg {
					t.Errorf("sent %q, answered %q", msg, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleCount(c, srv.Addr()); n > maxIdlePerDest {
		t.Errorf("%d idle connections kept, cap is %d", n, maxIdlePerDest)
	}
	if d, r := c.ConnStats(); d+r != callers*calls {
		t.Errorf("%d dials + %d reuses, want %d frames", d, r, callers*calls)
	}
}

// A frame the server refuses ends its own connection and nothing else: a
// well-formed frame behind it on that connection is not served, and a
// connection another client keeps is still good.
func TestRefusedFramesDoNotPoisonTheNextCaller(t *testing.T) {
	_, srv := startHost(t, "h")
	srv.SetJournalHandler(echoJournal)
	good := NewClient(key())
	defer good.Close()
	if err := good.Ping(testCtx(t), srv.Addr()); err != nil {
		t.Fatal(err)
	}

	bad := NewClient(security.NewSigner([]byte("wrong-key")))
	defer bad.Close()
	for i := 0; i < 2; i++ { // the second goes through the retry: the server hung up on the first
		if _, err := bad.Journal(testCtx(t), srv.Addr(), "k", nil); !errors.Is(err, ErrRejected) {
			t.Fatalf("wrong-key frame %d: %v, want ErrRejected", i, err)
		}
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	conn.Write([]byte("\x00\x00\x00\x07garbage"))
	var resp response
	if err := readFrame(conn, &resp); err != nil || resp.OK {
		t.Fatalf("garbage frame: resp %+v, err %v; want an error reply", resp, err)
	}
	conn.Write(signedFrame(t, request{Op: opPing})) // may already meet a closed connection
	if err := readFrame(conn, &resp); err == nil {
		t.Fatalf("the frame behind a refused one was answered: %+v", resp)
	}

	out, err := good.Journal(testCtx(t), srv.Addr(), "k", []byte("mine"))
	if err != nil || string(out) != "k:mine" {
		t.Fatalf("good client after refused frames: %q, %v", out, err)
	}
	wantConnStats(t, good, 1, 1)
}

func TestServerCloseHangsUpIdleConnectionsAtOnce(t *testing.T) {
	_, srv := startHost(t, "h")
	c := NewClient(key())
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < maxIdlePerDest; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if idleCount(c, srv.Addr()) == 0 {
		t.Fatal("no connection kept alive")
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close took %v with only idle connections open", took)
	}
}

// blockingJournal installs a journal handler that reports each request on
// entered and holds it until release is closed.
func blockingJournal(srv *Server) (entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 1), make(chan struct{})
	srv.SetJournalHandler(func(_ string, data []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return data, nil
	})
	return entered, release
}

func TestServerCloseDeliversTheReplyInFlight(t *testing.T) {
	_, srv := startHost(t, "h")
	entered, release := blockingJournal(srv)
	c := NewClient(key())
	defer c.Close()
	type result struct {
		out []byte
		err error
	}
	replied := make(chan result, 1)
	go func() {
		out, err := c.Journal(testCtx(t), srv.Addr(), "k", []byte("in flight"))
		replied <- result{out, err}
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned with a request in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-replied; r.err != nil || string(r.out) != "in flight" {
		t.Fatalf("request in flight at Close: %q, %v", r.out, r.err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

func TestClientCloseThenCall(t *testing.T) {
	_, srv := startHost(t, "h")
	c := NewClient(key())
	if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n := idleCount(c, srv.Addr()); n != 0 {
		t.Fatalf("%d idle connections after Close", n)
	}
	if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
		t.Fatalf("call after Close: %v", err)
	}
	c.Close()
	wantConnStats(t, c, 2, 0)
}

// A cancel, which carries no deadline, must still end a call blocked on its
// reply, and that connection must not be the next caller's.
func TestCancelAbortsCallInFlight(t *testing.T) {
	_, srv := startHost(t, "h")
	entered, release := blockingJournal(srv)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the server's Close, which waits for the handler

	c := NewClient(key())
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Journal(ctx, srv.Addr(), "k", []byte("abandoned"))
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel ignored: the call is still waiting for its reply")
	}
	if n := idleCount(c, srv.Addr()); n != 0 {
		t.Fatalf("the cancelled call's connection was kept (%d idle)", n)
	}

	unblock()
	out, err := c.Journal(testCtx(t), srv.Addr(), "k", []byte("next"))
	if err != nil || string(out) != "next" {
		t.Fatalf("call after a cancelled one: %q, %v", out, err)
	}
	wantConnStats(t, c, 2, 0)
}
