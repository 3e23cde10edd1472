package aglet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// echoAgent replies to every message with its own payload plus a counter of
// messages handled; the counter travels in its serialized state.
type echoAgent struct {
	Base
	mu      sync.Mutex
	Handled int `json:"handled"`
	Created bool
	Arrived bool
}

func (e *echoAgent) OnCreation(_ *Context, init []byte) error {
	e.Created = true
	return nil
}
func (e *echoAgent) OnArrival(*Context) error { e.Arrived = true; return nil }

func (e *echoAgent) HandleMessage(_ *Context, msg Message) (Message, error) {
	e.mu.Lock()
	e.Handled++
	n := e.Handled
	e.mu.Unlock()
	return Message{Kind: "echo", Data: []byte(fmt.Sprintf("%s#%d", msg.Data, n))}, nil
}

func (e *echoAgent) State() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return json.Marshal(struct{ Handled int }{e.Handled})
}

func (e *echoAgent) SetState(data []byte) error {
	var s struct{ Handled int }
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	e.mu.Lock()
	e.Handled = s.Handled
	e.mu.Unlock()
	return nil
}

// hopperAgent walks an itinerary: on each arrival it requests the next hop
// until the itinerary is done, then reports its trip on landed (if set) and
// stays at home.
type hopperAgent struct {
	Base
	It      Itinerary `json:"it"`
	Visited []string  `json:"visited"`

	landed chan<- []string
}

func (a *hopperAgent) OnCreation(ctx *Context, init []byte) error {
	return json.Unmarshal(init, &a.It)
}

func (a *hopperAgent) OnArrival(ctx *Context) error {
	a.Visited = append(a.Visited, ctx.HostName())
	if ctx.HostName() == a.It.Home {
		if a.landed != nil {
			a.landed <- append([]string(nil), a.Visited...)
		}
		return nil
	}
	next, updated := a.It.Advance()
	a.It = updated
	ctx.RequestDispatch(next)
	return nil
}

func (a *hopperAgent) HandleMessage(ctx *Context, msg Message) (Message, error) {
	if msg.Kind == "go" {
		ctx.RequestDispatch(a.It.Current())
		return Message{Kind: "ok"}, nil
	}
	return Message{Kind: "?"}, nil
}

func (a *hopperAgent) State() ([]byte, error)     { return json.Marshal(a) }
func (a *hopperAgent) SetState(data []byte) error { return json.Unmarshal(data, a) }

// OnDispatchFailure reroutes around unreachable stops.
func (a *hopperAgent) OnDispatchFailure(ctx *Context, dest string, err error) {
	if dest == a.It.Home {
		ctx.RequestDispose()
		return
	}
	next, updated := a.It.Advance()
	a.It = updated
	ctx.RequestDispatch(next)
}

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register("echo", func() Aglet { return &echoAgent{} })
	r.Register("hopper", func() Aglet { return &hopperAgent{} })
	return r
}

// hopperRegistry is testRegistry whose hoppers report their trip on the
// returned channel once they are home.
func hopperRegistry() (*Registry, <-chan []string) {
	landed := make(chan []string, 1)
	r := testRegistry()
	r.Register("hopper", func() Aglet { return &hopperAgent{landed: landed} })
	return r, landed
}

// awaitTrip waits for a hopper to come home and returns the hosts it visited.
func awaitTrip(t *testing.T, landed <-chan []string) []string {
	t.Helper()
	select {
	case visited := <-landed:
		return visited
	case <-time.After(5 * time.Second):
		t.Fatal("agent never returned home")
		return nil
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCreateAndSend(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	p, err := h.Create("echo", "e1", nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.Send(testCtx(t), Message{Kind: "ping", Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "hello#1" {
		t.Errorf("reply = %q", reply.Data)
	}
}

func TestCreateUnknownType(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	if _, err := h.Create("nope", "x", nil); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestCreateDuplicateID(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	if _, err := h.Create("echo", "e1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("echo", "e1", nil); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestSendToMissingAgent(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	if _, err := h.Send(testCtx(t), "ghost", Message{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestMessagesSerializedPerAgent(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	p, err := h.Create("echo", "e1", nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	counts := make([]int64, n+1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := p.Send(testCtx(t), Message{Data: []byte("m")})
			if err != nil {
				t.Error(err)
				return
			}
			var seq int
			fmt.Sscanf(string(reply.Data), "m#%d", &seq)
			if seq >= 1 && seq <= n {
				atomic.AddInt64(&counts[seq], 1)
			}
		}()
	}
	wg.Wait()
	// Every sequence number 1..n must appear exactly once: proof the handler
	// never ran concurrently with itself.
	for seq := 1; seq <= n; seq++ {
		if counts[seq] != 1 {
			t.Fatalf("sequence %d seen %d times", seq, counts[seq])
		}
	}
}

func TestDisposeStopsAgent(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	h.Create("echo", "e1", nil)
	if err := h.Dispose("e1"); err != nil {
		t.Fatal(err)
	}
	if h.Has("e1") {
		t.Error("agent still live after Dispose")
	}
	if _, err := h.Send(testCtx(t), "e1", Message{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Send after Dispose = %v", err)
	}
}

func TestDeactivateActivateRoundTrip(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	p, _ := h.Create("echo", "e1", nil)
	for i := 0; i < 3; i++ {
		if _, err := p.Send(testCtx(t), Message{Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Deactivate("e1"); err != nil {
		t.Fatal(err)
	}
	if h.Has("e1") {
		t.Fatal("agent live after Deactivate")
	}
	if !h.HasStored("e1") {
		t.Fatal("agent not in store after Deactivate")
	}

	p2, err := h.Activate("e1")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p2.Send(testCtx(t), Message{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	// Handled counter continues from 3: state survived the round trip.
	if string(reply.Data) != "x#4" {
		t.Errorf("reply after activate = %q, want x#4", reply.Data)
	}
}

func TestActivateMissing(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	if _, err := h.Activate("never"); !errors.Is(err, ErrNotStored) {
		t.Fatalf("err = %v, want ErrNotStored", err)
	}
}

func TestDispatchMovesAgentBetweenHosts(t *testing.T) {
	lb := NewLoopback()
	h1 := NewHost("h1", testRegistry())
	h2 := NewHost("h2", testRegistry())
	defer h1.Close()
	defer h2.Close()
	lb.Attach(h1)
	lb.Attach(h2)

	p, _ := h1.Create("echo", "e1", nil)
	p.Send(testCtx(t), Message{Data: []byte("x")}) // Handled=1

	if err := h1.Dispatch(testCtx(t), "e1", "h2"); err != nil {
		t.Fatal(err)
	}
	if h1.Has("e1") {
		t.Error("agent still on h1 after dispatch")
	}
	if !h2.Has("e1") {
		t.Fatal("agent not on h2 after dispatch")
	}
	// State travelled: counter continues.
	reply, err := h2.Send(testCtx(t), "e1", Message{Data: []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "y#2" {
		t.Errorf("reply on h2 = %q, want y#2", reply.Data)
	}
}

func TestDispatchWithoutTransport(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	h.Create("echo", "e1", nil)
	if err := h.Dispatch(testCtx(t), "e1", "h2"); !errors.Is(err, ErrNoTransport) {
		t.Fatalf("err = %v, want ErrNoTransport", err)
	}
	// Failed dispatch must leave the agent usable.
	if _, err := h.Send(testCtx(t), "e1", Message{Data: []byte("x")}); err != nil {
		t.Errorf("agent unusable after failed dispatch: %v", err)
	}
}

func TestDispatchToUnknownHostRestoresAgent(t *testing.T) {
	lb := NewLoopback()
	h1 := NewHost("h1", testRegistry())
	defer h1.Close()
	lb.Attach(h1)
	h1.Create("echo", "e1", nil)
	if err := h1.Dispatch(testCtx(t), "e1", "nowhere"); err == nil {
		t.Fatal("Dispatch to unknown host succeeded")
	}
	if !h1.Has("e1") {
		t.Fatal("agent lost after failed dispatch")
	}
	if _, err := h1.Send(testCtx(t), "e1", Message{Data: []byte("x")}); err != nil {
		t.Errorf("agent unusable after failed dispatch: %v", err)
	}
}

func TestSelfDispatchViaItinerary(t *testing.T) {
	lb := NewLoopback()
	reg, landed := hopperRegistry()
	home := NewHost("home", reg)
	m1 := NewHost("m1", reg)
	m2 := NewHost("m2", reg)
	m3 := NewHost("m3", reg)
	for _, h := range []*Host{home, m1, m2, m3} {
		defer h.Close()
		lb.Attach(h)
	}

	it := NewItinerary("home", "m1", "m2", "m3")
	init, _ := json.Marshal(it)
	p, err := home.Create("hopper", "mba-1", init)
	if err != nil {
		t.Fatal(err)
	}
	// Kick off the trip: the agent requests its first hop from its handler.
	if _, err := p.Send(testCtx(t), Message{Kind: "go"}); err != nil {
		t.Fatal(err)
	}

	// The trip is asynchronous; wait for the agent to come home.
	visited := awaitTrip(t, landed)
	if got, want := strings.Join(visited, ","), "m1,m2,m3,home"; got != want {
		t.Fatalf("Visited = %s, want %s", got, want)
	}
	if !home.Has("mba-1") {
		t.Error("agent not live at home after its trip")
	}
}

func TestRemoteProxyCall(t *testing.T) {
	lb := NewLoopback()
	h1 := NewHost("h1", testRegistry())
	h2 := NewHost("h2", testRegistry())
	defer h1.Close()
	defer h2.Close()
	lb.Attach(h1)
	lb.Attach(h2)

	h2.Create("echo", "e2", nil)
	p := h1.RemoteProxy("h2", "e2")
	reply, err := p.Send(testCtx(t), Message{Data: []byte("over the wire")})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Data) != "over the wire#1" {
		t.Errorf("reply = %q", reply.Data)
	}
}

// lifecycleLog records every lifecycle callback its agents receive.
type lifecycleLog struct {
	mu     sync.Mutex
	events []string
}

func (l *lifecycleLog) add(event string, ctx *Context) {
	l.mu.Lock()
	l.events = append(l.events, event+":"+ctx.ID())
	l.mu.Unlock()
}

func (l *lifecycleLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.events, ",")
}

// loggedAgent reports each lifecycle callback to its log.
type loggedAgent struct {
	Base
	log *lifecycleLog
}

func (a *loggedAgent) OnCreation(ctx *Context, _ []byte) error {
	a.log.add("creation", ctx)
	return nil
}
func (a *loggedAgent) OnArrival(ctx *Context) error { a.log.add("arrival", ctx); return nil }
func (a *loggedAgent) HandleMessage(*Context, Message) (Message, error) {
	return Message{}, nil
}

func loggedRegistry(log *lifecycleLog) *Registry {
	r := NewRegistry()
	r.Register("logged", func() Aglet { return &loggedAgent{log: log} })
	return r
}

// TestLifecycleHooks: OnCreation runs once where the agent is made and
// OnArrival once where it lands; parking, reviving and disposing call no
// agent code.
func TestLifecycleHooks(t *testing.T) {
	log := &lifecycleLog{}
	lb := NewLoopback()
	h1 := NewHost("h1", loggedRegistry(log))
	h2 := NewHost("h2", loggedRegistry(log))
	defer h1.Close()
	defer h2.Close()
	lb.Attach(h1)
	lb.Attach(h2)

	if _, err := h1.Create("logged", "e1", nil); err != nil {
		t.Fatal(err)
	}
	if err := h1.Dispatch(testCtx(t), "e1", "h2"); err != nil {
		t.Fatal(err)
	}
	if err := h2.Deactivate("e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Activate("e1"); err != nil {
		t.Fatal(err)
	}
	if err := h2.Dispose("e1"); err != nil {
		t.Fatal(err)
	}

	if got, want := log.String(), "creation:e1,arrival:e1"; got != want {
		t.Errorf("callbacks = %s, want %s", got, want)
	}
}

func TestCloseDisposesAllAndIsIdempotent(t *testing.T) {
	h := NewHost("h1", testRegistry())
	for i := 0; i < 10; i++ {
		h.Create("echo", fmt.Sprintf("e%d", i), nil)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := h.Agents(); len(got) != 0 {
		t.Errorf("live after Close = %v, want none", got)
	}
	if _, err := h.Send(testCtx(t), "e0", Message{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Send after Close = %v, want ErrNotFound", err)
	}
	if _, err := h.Create("echo", "late", nil); !errors.Is(err, ErrHostClosed) {
		t.Errorf("Create after Close = %v", err)
	}
}

func TestSendContextCancellation(t *testing.T) {
	slow := NewRegistry()
	release := make(chan struct{})
	slow.Register("slow", func() Aglet {
		return &funcAgent{fn: func(_ *Context, m Message) (Message, error) {
			<-release
			return Message{}, nil
		}}
	})
	h := NewHost("h1", slow)
	defer func() {
		close(release)
		h.Close()
	}()
	h.Create("slow", "s1", nil)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := h.Send(ctx, "s1", Message{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// funcAgent adapts a function to the Aglet interface for small tests.
type funcAgent struct {
	Base
	fn func(*Context, Message) (Message, error)
}

func (f *funcAgent) HandleMessage(ctx *Context, msg Message) (Message, error) {
	return f.fn(ctx, msg)
}

func TestHandlerErrorPropagates(t *testing.T) {
	r := NewRegistry()
	wantErr := errors.New("handler exploded")
	r.Register("bad", func() Aglet {
		return &funcAgent{fn: func(*Context, Message) (Message, error) {
			return Message{}, wantErr
		}}
	})
	h := NewHost("h1", r)
	defer h.Close()
	h.Create("bad", "b1", nil)
	_, err := h.Send(testCtx(t), "b1", Message{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestSelfDisposeViaContext(t *testing.T) {
	r := NewRegistry()
	r.Register("kamikaze", func() Aglet {
		return &funcAgent{fn: func(ctx *Context, m Message) (Message, error) {
			ctx.RequestDispose()
			return Message{Kind: "bye"}, nil
		}}
	})
	h := NewHost("h1", r)
	defer h.Close()
	h.Create("kamikaze", "k1", nil)
	reply, err := h.Send(testCtx(t), "k1", Message{})
	if err != nil || reply.Kind != "bye" {
		t.Fatal(err)
	}
	// The dispose settles after the reply; poll briefly.
	deadline := time.After(2 * time.Second)
	for h.Has("k1") {
		select {
		case <-deadline:
			t.Fatal("agent never disposed itself")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestAgentsListing(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	h.Create("echo", "a", nil)
	h.Create("echo", "b", nil)
	got := h.Agents()
	if len(got) != 2 {
		t.Fatalf("Agents = %v", got)
	}
}

func TestLoopbackStats(t *testing.T) {
	lb := NewLoopback()
	h1 := NewHost("h1", testRegistry())
	h2 := NewHost("h2", testRegistry())
	defer h1.Close()
	defer h2.Close()
	lb.Attach(h1)
	lb.Attach(h2)

	h2.Create("echo", "e", nil)
	p := h1.RemoteProxy("h2", "e")
	p.Send(testCtx(t), Message{Data: []byte("12345")})

	h1.Create("echo", "mover", nil)
	h1.Dispatch(testCtx(t), "mover", "h2")

	d, c, b := lb.Stats()
	if d != 1 || c != 1 {
		t.Errorf("Stats = %d dispatches, %d calls", d, c)
	}
	if b <= 0 {
		t.Errorf("bytesMoved = %d, want > 0", b)
	}
	lb.ResetStats()
	if d, c, b = lb.Stats(); d+c != 0 || b != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestPerHopLatency(t *testing.T) {
	lb := NewLoopback()
	h1 := NewHost("h1", testRegistry())
	h2 := NewHost("h2", testRegistry())
	defer h1.Close()
	defer h2.Close()
	lb.Attach(h1)
	lb.Attach(h2)
	var hops int64
	lb.SetPerHop(func(string) { atomic.AddInt64(&hops, 1) })

	h2.Create("echo", "e", nil)
	h1.RemoteProxy("h2", "e").Send(testCtx(t), Message{})
	if atomic.LoadInt64(&hops) != 1 {
		t.Errorf("hops = %d, want 1", hops)
	}
}

func TestItinerary(t *testing.T) {
	it := NewItinerary("home", "a", "b")
	if it.Current() != "a" || it.Done() || it.Index != 0 {
		t.Fatalf("fresh itinerary: %+v", it)
	}
	next, it := it.Advance()
	if next != "b" || it.Done() || it.Index != 1 {
		t.Fatalf("after first advance: next=%s %+v", next, it)
	}
	next, it = it.Advance()
	if next != "home" || !it.Done() || it.Index != 2 {
		t.Fatalf("after second advance: next=%s %+v", next, it)
	}
	// Advancing a done itinerary keeps pointing home.
	next, it = it.Advance()
	if next != "home" || !it.Done() || it.Index != 2 {
		t.Fatalf("after extra advance: next=%s %+v", next, it)
	}
}

func TestItineraryEmptyTripGoesHome(t *testing.T) {
	it := NewItinerary("home")
	if !it.Done() || it.Current() != "home" {
		t.Fatalf("empty itinerary: %+v", it)
	}
}

func TestConcurrentLifecycleChurn(t *testing.T) {
	// Experiment C6: the agent population is elastic; heavy create/dispose
	// churn must not leak or deadlock.
	h := NewHost("h1", testRegistry())
	defer h.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("g%d-e%d", g, i)
				p, err := h.Create("echo", id, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Send(testCtx(t), Message{Data: []byte("x")}); err != nil {
					t.Error(err)
					return
				}
				if err := h.Dispose(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(h.Agents()); n != 0 {
		t.Errorf("agents leaked: %d live", n)
	}
}

func TestDiscardStored(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	h.Create("echo", "a", nil)
	h.Deactivate("a")
	if err := h.DiscardStored("a"); err != nil {
		t.Fatal(err)
	}
	if h.HasStored("a") {
		t.Error("agent still stored after discard")
	}
	if err := h.DiscardStored("a"); !errors.Is(err, ErrNotStored) {
		t.Errorf("second discard: %v", err)
	}
}

func TestActivateWithUnregisteredType(t *testing.T) {
	// An agent stored under a type the registry no longer knows cannot be
	// revived; the error names the type.
	h := NewHost("h1", testRegistry())
	defer h.Close()
	h.stored["alien"] = storedAgent{Type: "martian"}
	if _, err := h.Activate("alien"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v", err)
	}
}

func TestProxyAccessors(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	p, _ := h.Create("echo", "e1", nil)
	if p.ID() != "e1" {
		t.Errorf("proxy id = %s", p.ID())
	}
	if id := h.RemoteProxy("h2", "e2").ID(); id != "e2" {
		t.Errorf("remote proxy id = %s", id)
	}
}

func TestRemoteProxyWithoutTransport(t *testing.T) {
	h := NewHost("h1", testRegistry())
	defer h.Close()
	p := h.RemoteProxy("elsewhere", "x")
	if _, err := p.Send(testCtx(t), Message{}); !errors.Is(err, ErrNoTransport) {
		t.Fatalf("err = %v", err)
	}
}

func TestDispatchFailureHandlerSkipsDeadHost(t *testing.T) {
	lb := NewLoopback()
	reg, landed := hopperRegistry()
	home := NewHost("home", reg)
	m2 := NewHost("m2", reg)
	defer home.Close()
	defer m2.Close()
	lb.Attach(home)
	lb.Attach(m2)
	// Itinerary visits the nonexistent m1 first; the hopper must reroute.
	it := NewItinerary("home", "m1", "m2")
	init, _ := json.Marshal(it)
	p, err := home.Create("hopper", "resilient", init)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(testCtx(t), Message{Kind: "go"}); err != nil {
		t.Fatal(err)
	}
	// m1 skipped, m2 and home visited.
	if got, want := strings.Join(awaitTrip(t, landed), ","), "m2,home"; got != want {
		t.Fatalf("Visited = %s, want %s", got, want)
	}
}

func TestItineraryJSONRoundTripProperty(t *testing.T) {
	fn := func(stops []string, index uint8) bool {
		it := NewItinerary("home", stops...)
		it.Index = int(index) % (len(stops) + 1)
		data, err := json.Marshal(it)
		if err != nil {
			return false
		}
		var got Itinerary
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		return got.Current() == it.Current() && got.Done() == it.Done() &&
			got.Index == it.Index
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
