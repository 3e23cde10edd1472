// Package atp implements the Agent Transfer Protocol: the network transport
// that moves aglet images and messages between hosts in different processes,
// standing in for the Aglets ATP layer the paper's platform uses (§2.1).
//
// Wire format: each request and response is a 4-byte big-endian length
// followed by a JSON body. Every request carries an HMAC-SHA256 signature
// over its canonical payload, so a host only accepts agents and messages
// from peers holding the shared platform key — the "comprehensive and simple"
// security goal the Aglets design states.
//
// Connections are kept alive. The paper's Buyer Agent Servers talk to each
// other all day (Fig 3.2: every buy ends in a forwarded Profile Agent write,
// every follower tails its owners' journals), so a client keeps a few idle
// connections per destination and sends a frame on one of them, dialling only
// when none is free; the server answers frame after frame on a connection
// until the peer hangs up, a frame is refused, or nothing arrives for
// serverIdle. One request is in flight per connection — there is no
// multiplexing — and each request is signed and verified on its own, so a
// long-lived connection carries no more authority than a fresh one. The byte
// accounting used by experiment C2 counts payload bytes per request and does
// not depend on how many connections carried them.
package atp

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/security"
)

// Errors reported by the protocol layer.
var (
	ErrFrameTooLarge = errors.New("atp: frame exceeds limit")
	ErrBadFrame      = errors.New("atp: malformed frame")
	ErrRejected      = errors.New("atp: peer rejected request")
)

// MaxFrame bounds a single frame; a migrating agent image comfortably fits.
const MaxFrame = 16 << 20

// Connection lifetimes. A connection nobody uses must end on its own: the
// server hangs up one that has waited serverIdle for its next frame. The
// client gives up on an idle connection sooner, so it never picks one the
// server is about to drop.
const (
	clientIdle     = 2 * time.Second
	serverIdle     = 5 * time.Second
	maxIdlePerDest = 4                // idle connections a client keeps per destination
	requestTimeout = 30 * time.Second // reading one frame, serving it and writing its reply
)

// request operations. None of them takes an agent off the host it runs on:
// an agent leaves only by its own or its host's decision.
const (
	opDispatch = "dispatch"
	opCall     = "call"
	opPing     = "ping"
	opJournal  = "journal"
)

type request struct {
	Op      string       `json:"op"`
	Image   *aglet.Image `json:"image,omitempty"`
	AgentID string       `json:"agent_id,omitempty"`
	Kind    string       `json:"kind,omitempty"`
	Data    []byte       `json:"data,omitempty"`
	Sig     []byte       `json:"sig"`
}

type response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Data  []byte `json:"data,omitempty"`
}

// signable returns the canonical bytes covered by the signature: the JSON
// encoding of the request with Sig nil.
func (r request) signable() ([]byte, error) {
	r.Sig = nil
	return json.Marshal(r)
}

// encodeBody returns v as a frame's JSON body.
func encodeBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("atp: encoding frame: %w", err)
	}
	if len(body) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return body, nil
}

// writeBody writes body behind its length prefix.
func writeBody(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("atp: writing frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("atp: writing frame body: %w", err)
	}
	return nil
}

func writeFrame(w io.Writer, v any) error {
	body, err := encodeBody(v)
	if err != nil {
		return err
	}
	return writeBody(w, body)
}

// readHeader reads a frame's length prefix; got is how many of its four
// bytes arrived, which on a kept-alive connection tells a peer that hung up
// between frames (none) from one that broke off inside a frame.
func readHeader(r io.Reader) (size uint32, got int, err error) {
	var hdr [4]byte
	if got, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, got, err
	}
	return binary.BigEndian.Uint32(hdr[:]), got, nil
}

// readBody reads and decodes the size-byte body that follows a header.
func readBody(r io.Reader, size uint32, v any) error {
	if size > MaxFrame {
		return ErrFrameTooLarge
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return nil
}

func readFrame(r io.Reader, v any) error {
	size, _, err := readHeader(r)
	if err != nil {
		return err
	}
	return readBody(r, size, v)
}

// JournalHandler serves engine journal-stream frames: kind names the
// sub-operation (e.g. "tail", "set-profiles", "purchase" — see
// internal/replnet) and data/reply are opaque JSON payloads, keeping the
// transport decoupled from the recommendation engine's types.
type JournalHandler func(kind string, data []byte) ([]byte, error)

// Server accepts ATP connections for one aglet host and answers the frames
// arriving on each, one at a time, until the connection ends. Construct with
// Serve; Close stops accepting, hangs up connections waiting between frames
// and waits for requests in flight to be answered.
type Server struct {
	host     *aglet.Host
	signer   *security.Signer
	listener net.Listener

	mu      sync.Mutex
	closed  bool
	journal JournalHandler
	waiting map[net.Conn]struct{} // connections between frames, for Close to hang up
	wg      sync.WaitGroup
}

// Serve starts an ATP server for host on addr (e.g. "127.0.0.1:0"). The
// server verifies request signatures with signer.
func Serve(host *aglet.Host, signer *security.Signer, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("atp: listening on %s: %w", addr, err)
	}
	s := &Server{host: host, signer: signer, listener: ln, waiting: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address, the string peers dial.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// SetJournalHandler installs (or replaces) the handler for journal frames.
// Without one the server rejects them — hosts that do not replicate an
// engine expose no journal surface.
func (s *Server) SetJournalHandler(h JournalHandler) {
	s.mu.Lock()
	s.journal = h
	s.mu.Unlock()
}

func (s *Server) journalHandler() JournalHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn answers conn's frames until the peer hangs up or goes quiet, the
// server closes, or a frame is refused: after a frame it could not parse or
// verify the server has no reason to trust where the next one starts, or who
// is sending it, so that connection ends with its error reply.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	for {
		size, ok := s.awaitFrame(conn)
		if !ok {
			return
		}
		conn.SetDeadline(time.Now().Add(requestTimeout))
		resp, keep := s.answer(conn, size)
		if err := writeFrame(conn, resp); err != nil || !keep {
			return
		}
	}
}

// awaitFrame waits for the header of conn's next frame. Whether the server
// is closed is decided, and the wait made visible to Close, under one lock:
// Close either finds the connection waiting and hangs it up, or the
// connection finds the server closed and leaves. Neither waits out the idle
// limit, and a header read counts as a request in flight only once the
// connection is off the waiting list with the server still open.
func (s *Server) awaitFrame(conn net.Conn) (size uint32, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, false
	}
	s.waiting[conn] = struct{}{}
	s.mu.Unlock()

	conn.SetReadDeadline(time.Now().Add(serverIdle))
	size, _, err := readHeader(conn)

	s.mu.Lock()
	delete(s.waiting, conn)
	closed := s.closed
	s.mu.Unlock()
	return size, err == nil && !closed
}

// answer reads the body of the frame whose header announced size bytes and
// serves it. Nothing is acted on before its signature verifies. keep reports
// whether the connection may carry another frame.
func (s *Server) answer(conn net.Conn, size uint32) (resp response, keep bool) {
	var req request
	if err := readBody(conn, size, &req); err != nil {
		return response{Error: err.Error()}, false
	}
	payload, err := req.signable()
	if err != nil {
		return response{Error: err.Error()}, false
	}
	if err := s.signer.Verify(payload, req.Sig); err != nil {
		return response{Error: "signature rejected"}, false
	}
	return s.serve(req), true
}

// serve performs a verified request.
func (s *Server) serve(req request) response {
	switch req.Op {
	case opPing:
		return response{OK: true}
	case opDispatch:
		if req.Image == nil {
			return response{Error: "dispatch without image"}
		}
		if err := s.host.Receive(*req.Image); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case opCall:
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
		defer cancel()
		reply, err := s.host.Send(ctx, req.AgentID, aglet.Message{Kind: req.Kind, Data: req.Data})
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, Kind: reply.Kind, Data: reply.Data}
	case opJournal:
		h := s.journalHandler()
		if h == nil {
			return response{Error: "no journal handler"}
		}
		out, err := h(req.Kind, req.Data)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, Kind: req.Kind, Data: out}
	default:
		return response{Error: "unknown op"}
	}
}

// Close stops the server: no new connection is accepted, every connection
// waiting between frames is hung up at once, and a request already in flight
// is answered before its connection ends. Close returns when all have.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.waiting {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// Client implements aglet.Transport over TCP. Destination host names are
// dial addresses ("ip:port"). The zero value is unusable; use NewClient.
type Client struct {
	signer  *security.Signer
	dialer  net.Dialer
	timeout time.Duration

	poolMu sync.Mutex
	idle   map[string][]idleConn // per destination, longest idle first

	dials  atomic.Uint64
	reuses atomic.Uint64

	statsMu    sync.Mutex
	dispatches int
	calls      int
	journals   int
	bytesSent  int64
}

// idleConn is a connection whose last response was read whole, and when.
type idleConn struct {
	conn  net.Conn
	since time.Time
}

// NewClient returns a transport client signing requests with signer.
func NewClient(signer *security.Signer) *Client {
	return &Client{signer: signer, timeout: 30 * time.Second, idle: make(map[string][]idleConn)}
}

// Close hangs up the client's idle connections. The client stays usable: the
// next request dials.
func (c *Client) Close() error {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	for dest, list := range c.idle {
		for _, ic := range list {
			ic.conn.Close()
		}
		delete(c.idle, dest)
	}
	return nil
}

// freshIdle closes dest's connections that have sat idle past clientIdle at
// now and returns the rest. The caller holds poolMu.
func (c *Client) freshIdle(dest string, now time.Time) []idleConn {
	list := c.idle[dest]
	cutoff := now.Add(-clientIdle)
	for len(list) > 0 && list[0].since.Before(cutoff) {
		list[0].conn.Close()
		list = list[1:]
	}
	return list
}

// takeIdle returns the most recently used idle connection to dest, or nil.
func (c *Client) takeIdle(dest string) net.Conn {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	list := c.freshIdle(dest, time.Now())
	if len(list) == 0 {
		delete(c.idle, dest)
		return nil
	}
	c.idle[dest] = list[:len(list)-1]
	return list[len(list)-1].conn
}

// putIdle keeps conn for dest's next request, or closes it if dest has
// enough.
func (c *Client) putIdle(dest string, conn net.Conn) {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	now := time.Now()
	list := c.freshIdle(dest, now)
	if len(list) >= maxIdlePerDest {
		conn.Close()
		return
	}
	c.idle[dest] = append(list, idleConn{conn, now})
}

func (c *Client) roundTrip(ctx context.Context, dest string, req request) (response, error) {
	payload, err := req.signable()
	if err != nil {
		return response{}, err
	}
	req.Sig = c.signer.Sign(payload)
	// Encoded before a connection is taken: a request that cannot go on the
	// wire costs no connection, and a retry sends the same bytes.
	body, err := encodeBody(req)
	if err != nil {
		return response{}, err
	}
	if err := ctx.Err(); err != nil {
		return response{}, fmt.Errorf("atp: request to %s: %w", dest, err)
	}

	var resp response
	dial := true
	if conn := c.takeIdle(dest); conn != nil {
		c.reuses.Add(1)
		resp, dial, err = c.exchange(ctx, dest, conn, body)
	}
	// Either no connection was idle, or the one taken was hung up before a
	// byte of the response arrived: the server dropped it while it sat
	// idle, which is no verdict on this request, so it goes out once more on
	// a connection of its own. A fresh connection's failure is final.
	if dial {
		conn, derr := c.dialer.DialContext(ctx, "tcp", dest)
		if derr != nil {
			return response{}, fmt.Errorf("atp: dialing %s: %w", dest, derr)
		}
		c.dials.Add(1)
		resp, _, err = c.exchange(ctx, dest, conn, body)
	}
	if err != nil {
		return response{}, err
	}
	if !resp.OK {
		return response{}, fmt.Errorf("%w: %s", ErrRejected, resp.Error)
	}

	c.statsMu.Lock()
	switch req.Op {
	case opDispatch:
		c.dispatches++
		if req.Image != nil {
			c.bytesSent += int64(len(req.Image.State))
		}
	case opCall:
		c.calls++
		c.bytesSent += int64(len(req.Data) + len(resp.Data))
	case opJournal:
		c.journals++
		c.bytesSent += int64(len(req.Data) + len(resp.Data))
	}
	c.statsMu.Unlock()
	return resp, nil
}

// exchange sends a request's frame body on conn and reads its response. The
// connection returns to the idle list only after a whole response frame; on
// any error, timeout or cancellation it is closed instead, because a
// connection with an unread or half-read response would hand the next caller
// this caller's reply. hungUp reports that the peer ended the connection
// before any byte of a response arrived.
func (c *Client) exchange(ctx context.Context, dest string, conn net.Conn, body []byte) (resp response, hungUp bool, err error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(c.timeout)
	}
	conn.SetDeadline(deadline)
	// A cancel carries no deadline, so it reaches a blocked read by expiring
	// the connection.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })

	var size uint32
	var got int
	if err = writeBody(conn, body); err == nil {
		if size, got, err = readHeader(conn); err == nil {
			err = readBody(conn, size, &resp)
		}
		if err != nil {
			err = fmt.Errorf("atp: reading response from %s: %w", dest, err)
		}
	}
	// A stop that comes too late means the expiry above has run, or is about
	// to: the connection is not one to hand to the next caller.
	if !stop() || err != nil {
		conn.Close()
	} else {
		c.putIdle(dest, conn)
	}
	if err == nil {
		return resp, false, nil
	}
	if ctx.Err() != nil {
		return response{}, false, fmt.Errorf("atp: request to %s: %w", dest, ctx.Err())
	}
	return response{}, got == 0 && !errors.Is(err, os.ErrDeadlineExceeded), err
}

// Dispatch implements aglet.Transport.
func (c *Client) Dispatch(ctx context.Context, dest string, img aglet.Image) error {
	_, err := c.roundTrip(ctx, dest, request{Op: opDispatch, Image: &img})
	return err
}

// Call implements aglet.Transport.
func (c *Client) Call(ctx context.Context, dest, agentID string, msg aglet.Message) (aglet.Message, error) {
	resp, err := c.roundTrip(ctx, dest, request{Op: opCall, AgentID: agentID, Kind: msg.Kind, Data: msg.Data})
	if err != nil {
		return aglet.Message{}, err
	}
	return aglet.Message{Kind: resp.Kind, Data: resp.Data}, nil
}

// Ping checks liveness of the ATP server at dest.
func (c *Client) Ping(ctx context.Context, dest string) error {
	_, err := c.roundTrip(ctx, dest, request{Op: opPing})
	return err
}

// Journal exchanges one engine journal-stream frame with dest: kind names
// the sub-operation and data carries its payload, both opaque to the
// transport. The reply payload is returned. Dest must have a
// JournalHandler installed.
func (c *Client) Journal(ctx context.Context, dest, kind string, data []byte) ([]byte, error) {
	resp, err := c.roundTrip(ctx, dest, request{Op: opJournal, Kind: kind, Data: data})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Stats reports dispatches, calls and payload bytes sent since construction.
func (c *Client) Stats() (dispatches, calls int, bytesSent int64) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.dispatches, c.calls, c.bytesSent
}

// ConnStats reports, since construction, how many connections the client
// dialled and how many requests it sent on a kept-alive one instead. Reuses
// standing still while dials climb is a pool that is not being hit.
func (c *Client) ConnStats() (dials, reuses uint64) {
	return c.dials.Load(), c.reuses.Load()
}

var _ aglet.Transport = (*Client)(nil)
