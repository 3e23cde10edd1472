package aglet

import (
	"context"
	"fmt"
	"sync"
)

// cell is the runtime container of one live agent: its goroutine, inbox and
// identity. The zero value is not usable; hosts build cells internally.
type cell struct {
	id    string
	typ   string
	agent Aglet
	ctx   *Context

	inbox chan envelope
	quit  chan struct{} // closed by the host to stop the loop
	done  chan struct{} // closed by the loop on exit
}

type envelope struct {
	ctx   context.Context
	msg   Message
	reply chan outcome
}

type outcome struct {
	msg Message
	err error
}

// storedAgent is the at-rest form of a deactivated agent.
type storedAgent struct {
	Type  string `json:"type"`
	State []byte `json:"state"`
}

// Host runs agents. Construct with NewHost; the zero value is not usable.
// All methods are safe for concurrent use. Close disposes every live agent
// and waits for their goroutines, so no goroutine outlives the host.
type Host struct {
	name     string
	registry *Registry

	mu        sync.Mutex
	transport Transport
	agents    map[string]*cell
	stored    map[string]storedAgent
	closed    bool

	wg sync.WaitGroup
}

// Option configures a Host.
type Option func(*Host)

// WithTransport sets the transport used for Dispatch and remote Proxy calls.
func WithTransport(t Transport) Option {
	return func(h *Host) { h.transport = t }
}

// inboxCap is each agent's inbox buffer.
const inboxCap = 64

// NewHost returns a host named name instantiating agents from registry.
func NewHost(name string, registry *Registry, opts ...Option) *Host {
	h := &Host{
		name:     name,
		registry: registry,
		agents:   make(map[string]*cell),
		stored:   make(map[string]storedAgent),
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// Name returns the host's name, which is also its transport address.
func (h *Host) Name() string { return h.name }

// newCell builds a cell and its context; the caller starts the loop.
func (h *Host) newCell(typ, id string, agent Aglet) *cell {
	c := &cell{
		id:    id,
		typ:   typ,
		agent: agent,
		inbox: make(chan envelope, inboxCap),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.ctx = &Context{host: h, cell: c}
	return c
}

// install registers the cell and starts its goroutine. Caller must not hold h.mu.
func (h *Host) install(c *cell) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrHostClosed
	}
	if _, exists := h.agents[c.id]; exists {
		h.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateID, c.id)
	}
	h.agents[c.id] = c
	h.wg.Add(1)
	h.mu.Unlock()
	go h.run(c)
	return nil
}

// Create instantiates a new agent of the registered type typ with identity
// id, delivering init to its OnCreation callback.
func (h *Host) Create(typ, id string, init []byte) (*Proxy, error) {
	agent, err := h.registry.New(typ)
	if err != nil {
		return nil, err
	}
	c := h.newCell(typ, id, agent)
	if err := agent.OnCreation(c.ctx, init); err != nil {
		return nil, fmt.Errorf("aglet: OnCreation of %s/%s: %w", typ, id, err)
	}
	if err := h.install(c); err != nil {
		return nil, err
	}
	return &Proxy{host: h, hostAddr: h.name, agentID: id}, nil
}

// snapshotAgent serializes an agent's state. Every caller runs while no
// message is being handled: either on the agent's own goroutine between
// messages (a self-requested dispatch) or after stopAgent has halted it.
func (h *Host) snapshotAgent(c *cell) ([]byte, error) {
	state, err := c.agent.State()
	if err != nil {
		return nil, fmt.Errorf("aglet: serializing %s/%s: %w", c.typ, c.id, err)
	}
	return state, nil
}

// Send delivers msg to agent id on this host and waits for its reply or ctx
// cancellation.
func (h *Host) Send(ctx context.Context, id string, msg Message) (Message, error) {
	h.mu.Lock()
	c, ok := h.agents[id]
	h.mu.Unlock()
	if !ok {
		return Message{}, fmt.Errorf("%w: %q on %s", ErrNotFound, id, h.name)
	}
	env := envelope{ctx: ctx, msg: msg, reply: make(chan outcome, 1)}
	select {
	case c.inbox <- env:
	case <-c.quit:
		return Message{}, fmt.Errorf("%w: %q on %s", ErrNotFound, id, h.name)
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
	select {
	case out := <-env.reply:
		return out.msg, out.err
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// run is the agent goroutine: it serializes message handling and performs
// the agent's own pending lifecycle requests between messages. Requests
// made during OnCreation or OnArrival (before the loop started) are settled
// first, which is how a mobile agent's itinerary hops chain.
func (h *Host) run(c *cell) {
	defer h.wg.Done()
	defer close(c.done)
	if done := h.settlePending(c, 0); done {
		return
	}
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		select {
		case <-c.quit:
			return
		case env := <-c.inbox:
			c.ctx.clearPending()
			reply, err := c.agent.HandleMessage(c.ctx, env.msg)
			env.reply <- outcome{msg: reply, err: err}
			if done := h.settlePending(c, 0); done {
				return
			}
		}
	}
}

// maxSettleDepth bounds recovery recursion when an agent's failure handler
// keeps requesting further transitions.
const maxSettleDepth = 64

// settlePending performs lifecycle transitions the agent requested from its
// own callbacks. It reports whether the loop must exit.
func (h *Host) settlePending(c *cell, depth int) bool {
	if depth > maxSettleDepth {
		return false
	}
	switch {
	case c.ctx.pendingDispatch != "":
		dest := c.ctx.pendingDispatch
		if err := h.completeDispatch(c, dest); err != nil {
			// A travel-aware agent decides what to do about the failed hop
			// (skip the stop, head home, dispose); others stay put and stay
			// reachable.
			if handler, ok := c.agent.(DispatchFailureHandler); ok {
				c.ctx.clearPending()
				handler.OnDispatchFailure(c.ctx, dest, err)
				return h.settlePending(c, depth+1)
			}
			return false
		}
		return true
	case c.ctx.pendingDispose:
		h.detach(c)
		return true
	}
	return false
}

// detach removes the cell from the live table. It is called either from the
// agent's own loop (self-requested transitions) or from host methods after
// stopping the loop.
func (h *Host) detach(c *cell) {
	h.mu.Lock()
	delete(h.agents, c.id)
	h.mu.Unlock()
}

// completeDispatch serializes the agent and ships it to dest via the
// transport, removing it locally on success.
func (h *Host) completeDispatch(c *cell, dest string) error {
	h.mu.Lock()
	tr := h.transport
	h.mu.Unlock()
	if tr == nil {
		return ErrNoTransport
	}
	state, err := h.snapshotAgent(c)
	if err != nil {
		return err
	}
	img := Image{Type: c.typ, ID: c.id, Owner: h.name, State: state}
	h.detach(c)
	if err := tr.Dispatch(context.Background(), dest, img); err != nil {
		// Reinstall: the agent never left. If the host closed while the
		// agent was detached, stay detached and let the loop exit.
		h.mu.Lock()
		if !h.closed {
			h.agents[c.id] = c
		}
		closed := h.closed
		h.mu.Unlock()
		if closed {
			return nil // treat as disposed-by-close; loop exits
		}
		return fmt.Errorf("aglet: dispatching %s/%s to %s: %w", c.typ, c.id, dest, err)
	}
	return nil
}

// Dispatch migrates agent id to dest from outside the agent (the Aglets
// proxy.dispatch form). The agent's goroutine is stopped first so the state
// snapshot is quiescent.
func (h *Host) Dispatch(ctx context.Context, id, dest string) error {
	c, err := h.stopAgent(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	tr := h.transport
	h.mu.Unlock()
	if tr == nil {
		h.restart(c)
		return ErrNoTransport
	}
	state, err := h.snapshotAgent(c)
	if err != nil {
		h.restart(c)
		return err
	}
	img := Image{Type: c.typ, ID: c.id, Owner: h.name, State: state}
	h.detach(c)
	if err := tr.Dispatch(ctx, dest, img); err != nil {
		h.restart(c)
		return fmt.Errorf("aglet: dispatching %s/%s to %s: %w", c.typ, c.id, dest, err)
	}
	return nil
}

// stopAgent halts the agent's loop and returns its cell, leaving the agent
// registered (callers detach or restart it).
func (h *Host) stopAgent(id string) (*cell, error) {
	h.mu.Lock()
	c, ok := h.agents[id]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q on %s", ErrNotFound, id, h.name)
	}
	close(c.quit)
	<-c.done
	return c, nil
}

// restart resumes a stopped agent with a fresh goroutine (after a failed
// lifecycle transition).
func (h *Host) restart(c *cell) {
	fresh := h.newCell(c.typ, c.id, c.agent)
	h.mu.Lock()
	if h.closed {
		delete(h.agents, c.id)
		h.mu.Unlock()
		return
	}
	h.agents[c.id] = fresh
	h.wg.Add(1)
	h.mu.Unlock()
	go h.run(fresh)
}

// Receive materializes an inbound image, registering the agent and running
// its OnArrival callback. Transports call this on the destination host.
func (h *Host) Receive(img Image) error {
	agent, err := h.registry.New(img.Type)
	if err != nil {
		return err
	}
	if err := agent.SetState(img.State); err != nil {
		return fmt.Errorf("aglet: restoring state of %s/%s: %w", img.Type, img.ID, err)
	}
	c := h.newCell(img.Type, img.ID, agent)
	if err := agent.OnArrival(c.ctx); err != nil {
		return fmt.Errorf("aglet: OnArrival of %s/%s: %w", img.Type, img.ID, err)
	}
	// OnArrival may itself have requested an onward move or disposal (an itinerary hop executed on landing); the agent's own
	// loop settles it right after install, so each hop runs decoupled from
	// the sender — arrival acknowledgment is not trip completion, exactly
	// like a store-and-forward agent transfer.
	return h.install(c)
}

// Deactivate stops agent id and serializes it into the host store; it no
// longer consumes a goroutine. Activate revives it.
func (h *Host) Deactivate(id string) error {
	c, err := h.stopAgent(id)
	if err != nil {
		return err
	}
	state, err := h.snapshotAgent(c)
	if err != nil {
		h.restart(c)
		return err
	}
	h.mu.Lock()
	delete(h.agents, c.id)
	h.stored[c.id] = storedAgent{Type: c.typ, State: state}
	h.mu.Unlock()
	return nil
}

// Activate revives a deactivated agent from its stored state.
func (h *Host) Activate(id string) (*Proxy, error) {
	h.mu.Lock()
	rec, ok := h.stored[id]
	if ok {
		delete(h.stored, id)
	}
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotStored, id)
	}
	agent, err := h.registry.New(rec.Type)
	if err != nil {
		return nil, err
	}
	if err := agent.SetState(rec.State); err != nil {
		return nil, fmt.Errorf("aglet: restoring %s/%s: %w", rec.Type, id, err)
	}
	if err := h.install(h.newCell(rec.Type, id, agent)); err != nil {
		return nil, err
	}
	return &Proxy{host: h, hostAddr: h.name, agentID: id}, nil
}

// Dispose permanently destroys agent id.
func (h *Host) Dispose(id string) error {
	c, err := h.stopAgent(id)
	if err != nil {
		return err
	}
	h.detach(c)
	return nil
}

// Agents returns the ids of all live agents.
func (h *Host) Agents() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.agents))
	for id := range h.agents {
		out = append(out, id)
	}
	return out
}

// Has reports whether agent id is live on this host.
func (h *Host) Has(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.agents[id]
	return ok
}

// HasStored reports whether agent id is deactivated in the host store.
func (h *Host) HasStored(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.stored[id]
	return ok
}

// DiscardStored removes a deactivated agent from the store without reviving
// it (e.g. a parked agent whose owner logged out for good).
func (h *Host) DiscardStored(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.stored[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotStored, id)
	}
	delete(h.stored, id)
	return nil
}

// RemoteProxy returns a proxy addressing agent agentID on another host via
// this host's transport.
func (h *Host) RemoteProxy(hostAddr, agentID string) *Proxy {
	return &Proxy{host: h, hostAddr: hostAddr, agentID: agentID}
}

// Close stops every live agent, discards pending inbox messages, and waits
// for all agent goroutines. Deactivated agents stay in the store. Close is
// idempotent.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	cells := make([]*cell, 0, len(h.agents))
	for _, c := range h.agents {
		cells = append(cells, c)
	}
	h.agents = make(map[string]*cell)
	h.mu.Unlock()

	for _, c := range cells {
		close(c.quit)
	}
	h.wg.Wait()
	return nil
}

// Proxy is a location-transparent handle to an agent: local sends go through
// the host directly, remote sends through the transport.
type Proxy struct {
	host     *Host
	hostAddr string
	agentID  string
}

// ID returns the target agent's identifier.
func (p *Proxy) ID() string { return p.agentID }

// Send delivers msg to the proxied agent and returns its reply.
func (p *Proxy) Send(ctx context.Context, msg Message) (Message, error) {
	if p.hostAddr == p.host.Name() {
		return p.host.Send(ctx, p.agentID, msg)
	}
	p.host.mu.Lock()
	tr := p.host.transport
	p.host.mu.Unlock()
	if tr == nil {
		return Message{}, ErrNoTransport
	}
	return tr.Call(ctx, p.hostAddr, p.agentID, msg)
}
