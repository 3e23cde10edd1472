package aglet

import (
	"context"
	"fmt"
	"sync"
)

// Loopback is an in-process Transport connecting hosts registered with it by
// name: a Dispatch hands the image to the destination host's Receive, a Call
// to its Send. It is the transport used by single-process platforms,
// examples and benchmarks; the atp package provides the TCP equivalent with
// the same semantics.
//
// Loopback can also simulate a wide-area network for the C2 experiment: a
// per-hop latency callback and dispatch/call/byte counters let the benchmark
// harness compare mobile-agent trips against conventional request/response
// traffic under identical conditions.
type Loopback struct {
	mu    sync.RWMutex
	hosts map[string]*Host

	// hookMu guards the instrumentation below separately from the host
	// table so counting does not contend with routing.
	hookMu     sync.Mutex
	dispatches int
	calls      int
	bytesMoved int64
	perHop     func(dest string) // e.g. latency injection
}

// NewLoopback returns an empty loopback network.
func NewLoopback() *Loopback {
	return &Loopback{hosts: make(map[string]*Host)}
}

// Attach registers host under its name and wires the host to this transport.
func (l *Loopback) Attach(h *Host) {
	l.mu.Lock()
	l.hosts[h.Name()] = h
	l.mu.Unlock()
	h.mu.Lock()
	h.transport = l
	h.mu.Unlock()
}

// Detach removes the named host from the network.
func (l *Loopback) Detach(name string) {
	l.mu.Lock()
	delete(l.hosts, name)
	l.mu.Unlock()
}

// SetPerHop installs fn to run once per Dispatch/Call, e.g. to simulate WAN
// latency with time.Sleep. A nil fn disables it.
func (l *Loopback) SetPerHop(fn func(dest string)) {
	l.hookMu.Lock()
	l.perHop = fn
	l.hookMu.Unlock()
}

func (l *Loopback) lookup(dest string) (*Host, error) {
	l.mu.RLock()
	h, ok := l.hosts[dest]
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("aglet: loopback: unknown host %q", dest)
	}
	return h, nil
}

func (l *Loopback) account(isDispatch bool, payload int) func(dest string) {
	l.hookMu.Lock()
	if isDispatch {
		l.dispatches++
	} else {
		l.calls++
	}
	l.bytesMoved += int64(payload)
	hop := l.perHop
	l.hookMu.Unlock()
	return hop
}

// Dispatch implements Transport by handing the image to the destination
// host's Receive.
func (l *Loopback) Dispatch(ctx context.Context, dest string, img Image) error {
	h, err := l.lookup(dest)
	if err != nil {
		return err
	}
	if hop := l.account(true, len(img.State)); hop != nil {
		hop(dest)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.Receive(img)
}

// Call implements Transport by sending msg to the destination agent.
func (l *Loopback) Call(ctx context.Context, dest, agentID string, msg Message) (Message, error) {
	h, err := l.lookup(dest)
	if err != nil {
		return Message{}, err
	}
	if hop := l.account(false, len(msg.Data)); hop != nil {
		hop(dest)
	}
	reply, err := h.Send(ctx, agentID, msg)
	if err != nil {
		return Message{}, err
	}
	l.hookMu.Lock()
	l.bytesMoved += int64(len(reply.Data))
	l.hookMu.Unlock()
	return reply, nil
}

// Stats reports dispatch count, call count, and total payload bytes moved
// since construction or the last ResetStats.
func (l *Loopback) Stats() (dispatches, calls int, bytesMoved int64) {
	l.hookMu.Lock()
	defer l.hookMu.Unlock()
	return l.dispatches, l.calls, l.bytesMoved
}

// ResetStats zeroes the traffic counters.
func (l *Loopback) ResetStats() {
	l.hookMu.Lock()
	l.dispatches, l.calls, l.bytesMoved = 0, 0, 0
	l.hookMu.Unlock()
}

var _ Transport = (*Loopback)(nil)
