// Package aglet is a mobile-agent runtime modeled on the IBM Aglets API the
// paper builds on (§2.1): agents are created on a host, exchange messages,
// can be *dispatched* to another host (carrying their state), *deactivated*
// into stable storage and later *activated* (the paper's §4.1 principle 3
// uses exactly this to park a Buyer Recommend Agent while its Mobile Buyer
// Agent is travelling), and finally disposed.
//
// Differences from Aglets, chosen deliberately:
//
//   - Only the five operations above, the ones the paper's mechanism uses.
//     There is no clone and no retract: an agent leaves a host only by its
//     own or its host's decision, and no peer can pull one off.
//   - Each agent runs as one goroutine owning an inbox channel; message
//     handling is therefore serialized per agent, which is the Aglets
//     threading model too.
//   - Java serialization is replaced by each agent implementing
//     State/SetState, a []byte round-trip through the package's codec.
//   - One codec for the agent plane (codec.go): Encode and Decode are the
//     only places a message payload or a state image becomes bytes, and an
//     agent answers through Handlers, one typed handler per message kind.
//     No package outside this one knows the encoding.
//   - Code does not travel: every host registers the agent types it can
//     instantiate (a Registry), and a migrating agent is re-instantiated
//     from its registered factory at the destination. This is the standard
//     closed-world simplification; the paper's platform likewise pre-deploys
//     its agent classes on every server.
package aglet

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Errors reported by the runtime. Match with errors.Is.
var (
	ErrNotFound    = errors.New("aglet: no such agent")
	ErrDuplicateID = errors.New("aglet: agent id already in use")
	ErrUnknownType = errors.New("aglet: agent type not registered")
	ErrHostClosed  = errors.New("aglet: host closed")
	ErrNotStored   = errors.New("aglet: no deactivated agent with that id")
	ErrNoTransport = errors.New("aglet: host has no transport")
)

// Message is the unit of agent communication. Kind selects the receiving
// agent's handler; Data is the payload, written by Encode and read by
// Decode.
type Message struct {
	Kind string
	Data []byte
}

// Aglet is the behaviour contract every agent implements. OnCreation runs
// on the creator's goroutine before the agent is visible to anyone else;
// OnArrival runs on the receiving host before the agent's loop starts; and
// HandleMessage runs on the agent's own goroutine. Deactivation, activation
// and disposal call no agent code: an agent's state is whatever State
// returns, and a revived agent is rebuilt from it by SetState alone.
type Aglet interface {
	// OnCreation initializes a brand-new agent with its init payload.
	OnCreation(ctx *Context, init []byte) error
	// OnArrival runs after the agent materializes on a new host following a
	// dispatch.
	OnArrival(ctx *Context) error
	// HandleMessage processes one message and returns the reply.
	HandleMessage(ctx *Context, msg Message) (Message, error)
	// State serializes the agent's mutable state for migration and
	// deactivation.
	State() ([]byte, error)
	// SetState restores state produced by State.
	SetState(data []byte) error
}

// Base provides no-op implementations of every Aglet callback except
// HandleMessage, so concrete agents embed it and override what they need.
type Base struct{}

func (Base) OnCreation(*Context, []byte) error { return nil }
func (Base) OnArrival(*Context) error          { return nil }
func (Base) State() ([]byte, error)            { return nil, nil }
func (Base) SetState([]byte) error             { return nil }

// Image is the wire form of a migrating agent: everything a destination
// host needs to re-instantiate it. The runtime carries no credentials of
// its own; an agent that must prove where it has been (the buyer server's
// MBA) carries its token in State, and its home host checks it there.
type Image struct {
	Type  string `json:"type"`
	ID    string `json:"id"`
	Owner string `json:"owner"` // originating host name
	State []byte `json:"state"`
}

// Transport moves images and messages between hosts. The atp package
// provides a TCP implementation; Loopback provides an in-process one.
type Transport interface {
	// Dispatch delivers img to the host addressed by dest.
	Dispatch(ctx context.Context, dest string, img Image) error
	// Call sends msg to agent agentID on host dest and returns the reply.
	Call(ctx context.Context, dest, agentID string, msg Message) (Message, error)
}

// Factory constructs a zero agent of one type.
type Factory func() Aglet

// Registry maps agent type names to factories. A Registry is immutable
// after construction and safe to share among hosts.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register binds name to factory, replacing any previous binding.
func (r *Registry) Register(name string, factory Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[name] = factory
}

// New instantiates a zero agent of the named type.
func (r *Registry) New(name string) (Aglet, error) {
	r.mu.RLock()
	factory, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, name)
	}
	return factory(), nil
}

// DispatchFailureHandler is an optional interface for travel-aware agents:
// when a self-requested dispatch cannot reach its destination, the runtime
// invokes OnDispatchFailure instead of silently parking the agent, and the
// agent may request an alternative transition (skip the stop, head home,
// dispose). Handlers must make progress — e.g. advance an itinerary — since
// recovery recursion is bounded.
type DispatchFailureHandler interface {
	OnDispatchFailure(ctx *Context, dest string, err error)
}

// Context is the agent's view of its host, passed to every callback. It is
// also how a running agent requests its own migration or disposal: the
// request takes effect after the current callback returns, mirroring the
// Aglets behaviour where dispatch() unwinds the current event. Parking an
// agent is never self-requested; its host's owner calls Host.Deactivate
// (the BSMA parks the BRA that way).
type Context struct {
	host *Host
	cell *cell

	pendingDispatch string
	pendingDispose  bool
}

// ID returns the agent's identifier.
func (c *Context) ID() string { return c.cell.id }

// Type returns the agent's registered type name.
func (c *Context) Type() string { return c.cell.typ }

// HostName returns the name of the host the agent currently runs on.
func (c *Context) HostName() string { return c.host.name }

// RequestDispatch asks the runtime to migrate this agent to dest after the
// current callback returns.
func (c *Context) RequestDispatch(dest string) { c.pendingDispatch = dest }

// RequestDispose asks the runtime to destroy this agent after the current
// callback returns.
func (c *Context) RequestDispose() { c.pendingDispose = true }

// Send delivers msg to another agent on the same host and waits for the
// reply. Agents on other hosts are reached through Proxy.
func (c *Context) Send(ctx context.Context, agentID string, msg Message) (Message, error) {
	return c.host.Send(ctx, agentID, msg)
}

func (c *Context) clearPending() {
	c.pendingDispatch = ""
	c.pendingDispose = false
}
