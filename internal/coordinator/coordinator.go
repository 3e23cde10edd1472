// Package coordinator implements the paper's Coordinator Server (§3.2
// item 1): a static Coordinator Agent (CA) that "manages an E-Commerce
// domain". Concretely the CA keeps the domain directory — which
// marketplaces, buyer agent servers and seller servers exist and where —
// and performs the admission half of the mechanism-creation workflow of
// Fig 4.1: a would-be Buyer Agent Server asks to join (step 1), the CA
// creates a Buyer Server Management Agent (step 2) and dispatches it to the
// new server's host (step 3). Steps 4–6 happen on arrival and belong to the
// buyerserver package.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"agentrec/internal/aglet"
	"agentrec/internal/trace"
)

// CAID is the well-known agent id of the Coordinator Agent.
const CAID = "ca"

// BSMAType is the agent type name under which Buyer Server Management
// Agents are registered; the coordinator instantiates it generically (its
// behaviour is bound at the destination host) for the Fig 4.1 dispatch.
const BSMAType = "bsma"

// BSMAID is the well-known agent id of a Buyer Server Management Agent.
const BSMAID = "bsma"

// ServerKind classifies a registered server.
type ServerKind string

// The server kinds of Fig 3.1.
const (
	KindMarketplace ServerKind = "marketplace"
	KindBuyerServer ServerKind = "buyerserver"
	KindSeller      ServerKind = "seller"
)

// ErrUnknownKind reports a registration of a kind the directory does not
// hold.
var ErrUnknownKind = errors.New("coordinator: unknown server kind")

// Registration is one directory entry.
type Registration struct {
	Kind ServerKind `json:"kind"`
	Name string     `json:"name"`
	Addr string     `json:"addr"` // aglet host name / transport address
}

// Message kinds the CA understands.
const (
	KindRegister = "register"
	KindLookup   = "lookup"
	KindAdmit    = "admit-buyer-server"
)

// LookupRequest asks for all registrations of one kind ("" = all).
type LookupRequest struct {
	Kind ServerKind `json:"kind"`
}

// LookupReply carries directory entries.
type LookupReply struct {
	Entries []Registration `json:"entries"`
}

// AdmitRequest asks the CA to set up a Buyer Agent Server at Addr
// (Fig 4.1 step 1).
type AdmitRequest struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// AckReply is a plain acknowledgement.
type AckReply struct {
	OK bool `json:"ok"`
}

// Coordinator is the coordinator server. Construct with New.
type Coordinator struct {
	host   *aglet.Host
	tracer *trace.Recorder

	mu        sync.Mutex
	entries   map[string]Registration // key: string(kind)+"/"+name
	ownership *Authority              // nil unless AttachOwnership was called
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithTracer records workflow events (Fig 4.1 steps) into r.
func WithTracer(r *trace.Recorder) Option {
	return func(c *Coordinator) { c.tracer = r }
}

// New creates a coordinator whose CA lives on host. The CA factory and a
// generic BSMA factory (used only to carry the agent to its destination,
// where the buyer server binds the real behaviour) are registered on reg,
// which must therefore be specific to this host.
func New(host *aglet.Host, reg *aglet.Registry, opts ...Option) (*Coordinator, error) {
	c := &Coordinator{host: host, entries: make(map[string]Registration)}
	for _, opt := range opts {
		opt(c)
	}
	typeName := "ca:" + host.Name()
	h := c.caHandlers()
	reg.Register(typeName, func() aglet.Aglet { return &caAgent{h: h} })
	reg.Register(BSMAType, func() aglet.Aglet { return &GenericBSMA{} })
	if _, err := host.Create(typeName, CAID, nil); err != nil {
		return nil, fmt.Errorf("coordinator: creating CA on %s: %w", host.Name(), err)
	}
	return c, nil
}

// BSMAState is the wire state of a travelling BSMA: the address of the
// buyer agent server it is being sent to manage. The buyerserver package
// decodes the same shape on arrival.
type BSMAState struct {
	Home string `json:"home"`
}

// GenericBSMA is the coordinator-side embryo of a Buyer Server Management
// Agent: it exists only to be created (Fig 4.1 step 2) and dispatched
// (step 3); the destination host instantiates the full behaviour from the
// same state.
type GenericBSMA struct {
	aglet.Base
	St BSMAState
}

// OnCreation stores the destination address passed as init.
func (g *GenericBSMA) OnCreation(_ *aglet.Context, init []byte) error {
	g.St.Home = string(init)
	return nil
}

// HandleMessage is never reached in normal flow; the embryo is dispatched
// before anyone can message it.
func (g *GenericBSMA) HandleMessage(_ *aglet.Context, _ aglet.Message) (aglet.Message, error) {
	return aglet.Message{}, errors.New("coordinator: embryonic BSMA has no behaviour")
}

// State serializes the destination address.
func (g *GenericBSMA) State() ([]byte, error) {
	img, err := aglet.Encode(BSMAType, g.St)
	return img.Data, err
}

// SetState restores the destination address.
func (g *GenericBSMA) SetState(data []byte) error {
	return aglet.Decode(aglet.Message{Kind: BSMAType, Data: data}, &g.St)
}

// Host returns the coordinator's aglet host.
func (c *Coordinator) Host() *aglet.Host { return c.host }

// Register adds or replaces a directory entry.
func (c *Coordinator) Register(r Registration) error {
	switch r.Kind {
	case KindMarketplace, KindBuyerServer, KindSeller:
	default:
		return fmt.Errorf("%w: %q", ErrUnknownKind, r.Kind)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[string(r.Kind)+"/"+r.Name] = r
	return nil
}

// Lookup returns registrations of one kind, or all for kind "". Entries are
// sorted by name for determinism.
func (c *Coordinator) Lookup(kind ServerKind) []Registration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Registration, 0, len(c.entries))
	for _, e := range c.entries {
		if kind == "" || e.Kind == kind {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Admit performs Fig 4.1 steps 2 and 3: create a BSMA on the coordinator
// host and dispatch it to the new Buyer Agent Server at addr. The caller
// (the buyer server bootstrap) performed step 1 by sending the request. The
// new server is also registered in the domain directory.
func (c *Coordinator) Admit(name, addr string) error {
	c.tracer.Record("creation", 2, "CA", "BSMA", "create BSMA agent")
	proxy, err := c.host.Create(BSMAType, BSMAID, []byte(addr))
	if err != nil {
		return fmt.Errorf("coordinator: creating BSMA for %s: %w", addr, err)
	}
	c.tracer.Record("creation", 3, "CA", "BSMA", "dispatch BSMA to "+addr)
	if err := c.host.Dispatch(context.Background(), proxy.ID(), addr); err != nil {
		// Clean up the stranded agent; admission failed.
		_ = c.host.Dispose(proxy.ID())
		return fmt.Errorf("coordinator: dispatching BSMA to %s: %w", addr, err)
	}
	return c.Register(Registration{Kind: KindBuyerServer, Name: name, Addr: addr})
}

// caAgent is the CA's message interface.
type caAgent struct {
	aglet.Base
	h aglet.Handlers
}

func (a *caAgent) HandleMessage(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	return a.h.Handle(ctx, msg)
}

// caHandlers is the CA's message table over the coordinator.
func (c *Coordinator) caHandlers() aglet.Handlers {
	h := aglet.Handlers{}
	aglet.On(h, KindRegister, func(_ *aglet.Context, reg Registration) (AckReply, error) {
		return AckReply{OK: true}, c.Register(reg)
	})
	aglet.On(h, KindLookup, func(_ *aglet.Context, req LookupRequest) (LookupReply, error) {
		return LookupReply{Entries: c.Lookup(req.Kind)}, nil
	})
	aglet.On(h, KindAdmit, func(_ *aglet.Context, req AdmitRequest) (AckReply, error) {
		c.tracer.Record("creation", 1, "Server", "CA", "request to be buyer agent server")
		return AckReply{OK: true}, c.Admit(req.Name, req.Addr)
	})
	aglet.On(h, KindLease, func(_ *aglet.Context, req LeaseRequest) (LeaseGrant, error) {
		auth := c.Ownership()
		if auth == nil {
			return LeaseGrant{}, errors.New("coordinator: no ownership authority attached (static ownership deployment?)")
		}
		return auth.Renew(req.Server, req.Applied)
	})
	return h
}
