package buyerserver

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/atp"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/marketplace"
	"agentrec/internal/recommend"
	"agentrec/internal/security"
	"agentrec/internal/trace"
)

// TestWorkflowsOverTCP runs the Fig 4.1 creation and Fig 4.2 query
// workflows with every host on a real TCP socket: the BSMA migrates from
// the coordinator as a signed ATP frame, and the MBA's shopping trip
// crosses the loopback interface for every hop. This is the cmd/platformd
// wiring under test.
func TestWorkflowsOverTCP(t *testing.T) {
	signer := security.NewSigner([]byte("test-platform-key"))
	client := atp.NewClient(signer)
	tracer := trace.New()

	up := func(reg *aglet.Registry) (*aglet.Host, string) {
		t.Helper()
		// Bind first to learn the port, since the host's name must be its
		// dial address. Probe with a throwaway listener is racy; instead
		// serve on :0 and re-create the host under the final name.
		probe := aglet.NewHost("probe", reg)
		srv, err := atp.Serve(probe, signer, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr()
		srv.Close()
		probe.Close()

		host := aglet.NewHost(addr, reg, aglet.WithTransport(client))
		srv2, err := atp.Serve(host, signer, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv2.Close()
			host.Close()
		})
		return host, addr
	}

	// Coordinator.
	coordReg := aglet.NewRegistry()
	coordHost, coordAddr := up(coordReg)
	coord, err := coordinator.New(coordHost, coordReg, coordinator.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}

	// One marketplace.
	marketReg := aglet.NewRegistry()
	RegisterMBAType(marketReg)
	marketHost, marketAddr := up(marketReg)
	cat := catalog.New()
	if err := cat.Add(&catalog.Product{
		ID: "lap1", Name: "UltraBook", Category: "laptop",
		Terms: map[string]float64{"ssd": 1}, PriceCents: 100000, SellerID: "s", Stock: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := marketplace.NewServer(marketHost, cat, marketReg); err != nil {
		t.Fatal(err)
	}
	coord.Register(coordinator.Registration{Kind: coordinator.KindMarketplace, Name: marketAddr, Addr: marketAddr})

	// Buyer agent server, admitted over TCP (Fig 4.1).
	buyerReg := aglet.NewRegistry()
	buyerHost, _ := up(buyerReg)
	engine := recommend.NewEngine(cat)
	srv, err := New(buyerHost, buyerReg, engine,
		buyerHost.RemoteProxy(coordAddr, coordinator.CAID),
		WithTracer(tracer), WithMarkets(marketAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := tracer.Verify("creation", CreationWorkflow); err != nil {
		t.Fatalf("Fig 4.1 over TCP: %v\n%s", err, tracer.Transcript("creation"))
	}

	// Full query workflow over real sockets.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	tracer.Reset()
	res, err := srv.Query(ctx, "alice", catalog.Query{Category: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || len(res.Results[0].Matches) != 1 {
		t.Fatalf("results = %+v", res.Results)
	}
	if err := tracer.Verify("query", QueryWorkflow); err != nil {
		t.Fatalf("Fig 4.2 over TCP: %v\n%s", err, tracer.Transcript("query"))
	}

	// And a negotiated buy over TCP.
	buy, err := srv.Buy(ctx, "alice", "lap1", 95000, true)
	if err != nil {
		t.Fatal(err)
	}
	if buy.Sale == nil || buy.Sale.PriceCents > 95000 {
		t.Fatalf("sale = %+v", buy.Sale)
	}
}

// TestDurableUserDB proves the learned profile and the transactions
// survive a buyer server restart under one state directory: the profile in
// the engine's journal, the transactions in the WAL-backed UserDB.
func TestDurableUserDB(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	boot := func() *Server {
		t.Helper()
		return newMechanismOver(t, 1, []recommend.Option{recommend.WithPersistence(filepath.Join(dir, "engine"))}, WithStateDir(dir)).srv
	}
	shut := func(srv *Server) {
		t.Helper()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Engine().Close(); err != nil {
			t.Fatal(err)
		}
	}

	srv := boot()
	if err := srv.Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Buy(ctx, "alice", "market-1:lap1", 0, false); err != nil {
		t.Fatal(err)
	}
	shut(srv)

	// "Restart": a fresh server over the same state directory.
	srv2 := boot()
	defer shut(srv2)
	// No re-registration needed; the profile learned before the restart.
	if _, err := srv2.Login(ctx, "alice"); err != nil {
		t.Fatalf("login after restart: %v", err)
	}
	p, err := srv2.Engine().Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Observed == 0 || p.PreferenceValue("laptop") <= 0 {
		t.Errorf("profile lost across restart: %+v", p)
	}
	txns, err := srv2.userDB.Scan(bucketTxns, "alice/")
	if err != nil || len(txns) != 1 {
		t.Errorf("transactions lost across restart: %v, %v", txns, err)
	}
}
