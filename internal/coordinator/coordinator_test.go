package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/trace"
)

func testCoord(t *testing.T, opts ...Option) (*Coordinator, *aglet.Host, *aglet.Loopback) {
	t.Helper()
	lb := aglet.NewLoopback()
	reg := aglet.NewRegistry()
	host := aglet.NewHost("coord", reg)
	lb.Attach(host)
	t.Cleanup(func() { host.Close() })
	c, err := New(host, reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, host, lb
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRegisterAndLookup(t *testing.T) {
	c, _, _ := testCoord(t)
	entries := []Registration{
		{Kind: KindMarketplace, Name: "m1", Addr: "m1"},
		{Kind: KindMarketplace, Name: "m0", Addr: "m0"},
		{Kind: KindSeller, Name: "s1", Addr: "s1"},
	}
	for _, e := range entries {
		if err := c.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Lookup(KindMarketplace)
	if len(got) != 2 || got[0].Name != "m0" || got[1].Name != "m1" {
		t.Errorf("Lookup(marketplace) = %+v", got)
	}
	if all := c.Lookup(""); len(all) != 3 {
		t.Errorf("Lookup(all) = %+v", all)
	}
}

func TestRegisterUnknownKind(t *testing.T) {
	c, _, _ := testCoord(t)
	if err := c.Register(Registration{Kind: "alien", Name: "x"}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterReplaces(t *testing.T) {
	c, _, _ := testCoord(t)
	c.Register(Registration{Kind: KindSeller, Name: "s", Addr: "old"})
	c.Register(Registration{Kind: KindSeller, Name: "s", Addr: "new"})
	got := c.Lookup(KindSeller)
	if len(got) != 1 || got[0].Addr != "new" {
		t.Errorf("Lookup = %+v", got)
	}
}

func TestCAMessages(t *testing.T) {
	_, host, _ := testCoord(t)
	reg, _ := json.Marshal(Registration{Kind: KindMarketplace, Name: "m1", Addr: "m1"})
	if _, err := host.Send(testCtx(t), CAID, aglet.Message{Kind: KindRegister, Data: reg}); err != nil {
		t.Fatal(err)
	}
	lk, _ := json.Marshal(LookupRequest{Kind: KindMarketplace})
	reply, err := host.Send(testCtx(t), CAID, aglet.Message{Kind: KindLookup, Data: lk})
	if err != nil {
		t.Fatal(err)
	}
	var lr LookupReply
	if err := json.Unmarshal(reply.Data, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Entries) != 1 || lr.Entries[0].Name != "m1" {
		t.Errorf("lookup reply = %+v", lr)
	}
}

func TestCABadMessages(t *testing.T) {
	_, host, _ := testCoord(t)
	if _, err := host.Send(testCtx(t), CAID, aglet.Message{Kind: "???"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := host.Send(testCtx(t), CAID, aglet.Message{Kind: KindRegister, Data: []byte("x")}); err == nil {
		t.Error("garbage register accepted")
	}
}

func TestAdmitDispatchesBSMA(t *testing.T) {
	tracer := trace.New()
	c, _, lb := testCoord(t, WithTracer(tracer))

	// The destination host plays the buyer server: it must be able to
	// instantiate a "bsma"; the generic factory suffices for this test.
	destReg := aglet.NewRegistry()
	destReg.Register(BSMAType, func() aglet.Aglet { return &GenericBSMA{} })
	dest := aglet.NewHost("buyer-host", destReg)
	defer dest.Close()
	lb.Attach(dest)

	if err := c.Admit("buyer-1", "buyer-host"); err != nil {
		t.Fatal(err)
	}
	if !dest.Has(BSMAID) {
		t.Fatal("BSMA did not arrive at buyer host")
	}
	// Directory updated.
	got := c.Lookup(KindBuyerServer)
	if len(got) != 1 || got[0].Addr != "buyer-host" {
		t.Errorf("directory = %+v", got)
	}
	// Steps 2 and 3 traced.
	events := tracer.Workflow("creation")
	if len(events) != 2 || events[0].Step != 2 || events[1].Step != 3 {
		t.Errorf("trace = %+v", events)
	}
}

func TestAdmitFailureCleansUp(t *testing.T) {
	c, host, _ := testCoord(t)
	if err := c.Admit("ghost", "no-such-host"); err == nil {
		t.Fatal("Admit to unknown host succeeded")
	}
	// The embryonic BSMA must not linger on the coordinator.
	if host.Has(BSMAID) {
		t.Error("stranded BSMA after failed admission")
	}
	// And the directory must not list the failed server.
	if got := c.Lookup(KindBuyerServer); len(got) != 0 {
		t.Errorf("directory = %+v", got)
	}
}

func TestGenericBSMAStateRoundTrip(t *testing.T) {
	g := &GenericBSMA{}
	if err := g.OnCreation(nil, []byte("buyer-host")); err != nil {
		t.Fatal(err)
	}
	data, err := g.State()
	if err != nil {
		t.Fatal(err)
	}
	var g2 GenericBSMA
	if err := g2.SetState(data); err != nil {
		t.Fatal(err)
	}
	if g2.St.Home != "buyer-host" {
		t.Errorf("Home = %q", g2.St.Home)
	}
	if _, err := g2.HandleMessage(nil, aglet.Message{}); err == nil {
		t.Error("embryo answered a message")
	}
}
