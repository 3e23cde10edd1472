package atp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"agentrec/internal/aglet"
)

// signedFrame is req as a client would put it on the wire.
func signedFrame(t testing.TB, req request) []byte {
	t.Helper()
	payload, err := req.signable()
	if err != nil {
		t.Fatal(err)
	}
	req.Sig = key().Sign(payload)
	var buf bytes.Buffer
	if err := writeFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzServerFrames feeds one connection's worth of arbitrary bytes to a live
// server. A kept-alive connection is a long-lived parser: whatever arrives,
// the server must not panic, must end the connection once the peer has, must
// leave no goroutine behind after Close, and must still answer a valid frame
// on a new connection. Nor may any frame, signed or not, take an agent off
// the host: the live keeper agent is still there after every stream.
func FuzzServerFrames(f *testing.F) {
	// Frames signed by today's code, so the corpus keeps valid ones even if
	// the encoding moves under the bytes committed in testdata/fuzz (a
	// truncated header, a length over MaxFrame, valid-then-garbage, a wrong
	// signature, and a signed "retract" naming the keeper, an op the server
	// does not serve).
	f.Add(signedFrame(f, request{Op: opPing}))
	f.Add(signedFrame(f, request{Op: opJournal, Kind: "tail", Data: []byte(`{"shard":1}`)}))
	f.Add(signedFrame(f, request{Op: opCall, AgentID: "ghost", Kind: "inc"}))

	host := aglet.NewHost("fuzzed", reg())
	f.Cleanup(func() { host.Close() })
	// The counter type never disposes or dispatches itself.
	if _, err := host.Create("counter", "keeper", nil); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		before := runtime.NumGoroutine()
		srv, err := Serve(host, key(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetJournalHandler(func(string, []byte) ([]byte, error) { return []byte(`{}`), nil })

		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Write and half-close beside the read, so replies never back up
		// against a stream still being written.
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			conn.Write(stream)
			conn.(*net.TCPConn).CloseWrite()
		}()
		// The connection ends in EOF, or in a reset when the server hung up
		// on a refused frame with more of the stream unread; what it must not
		// do is stay open.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("the server kept the connection open after the peer finished: %v", err)
		}
		<-wrote
		conn.Close()
		if !host.Has("keeper") {
			t.Error("the stream took the keeper agent off the host")
		}

		c := NewClient(key())
		if err := c.Ping(testCtx(t), srv.Addr()); err != nil {
			t.Errorf("valid frame on a new connection after the stream: %v", err)
		}
		c.Close()

		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		// Close waited for the server's own goroutines; the writer above has
		// returned but may not have exited yet.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines before Serve, %d after Close", before, after)
		}
	})
}
