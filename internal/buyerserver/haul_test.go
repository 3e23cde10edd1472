package buyerserver

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
	"agentrec/internal/marketplace"
)

// tapLog records, in order, the bytes a trip puts on the agent plane.
type tapLog struct {
	mu    sync.Mutex
	lines []string
	home  chan struct{}
}

func (l *tapLog) add(label string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, label+" "+string(data))
}

// tapMBA is the Mobile Buyer Agent with every migration image recorded as
// it lands, labelled with the host it lands on.
type tapMBA struct {
	mbaAgent
	log  *tapLog
	host string
}

func (a *tapMBA) SetState(data []byte) error {
	a.log.add("image@"+a.host, data)
	return a.mbaAgent.SetState(data)
}

// tapBSMA stands in for the BSMA at home: it records the mba-home frame and
// accepts it.
type tapBSMA struct {
	aglet.Base
	log *tapLog
}

func (b *tapBSMA) HandleMessage(_ *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	b.log.add(msg.Kind, msg.Data)
	defer close(b.log.home)
	return aglet.Encode(kindMBAHome, mbaHomeReply{Accepted: true})
}

// tapTrip sends one MBA with spec from a home host over markets (each
// stocked with marketProducts and one product whose name needs escaping)
// and returns every image it migrated as and the frame it came home as.
// prepare runs against the marketplaces before the MBA leaves.
func tapTrip(t *testing.T, markets int, spec TaskSpec, prepare func(*testing.T, []*marketplace.Server)) []string {
	t.Helper()
	log := &tapLog{home: make(chan struct{})}
	lb := aglet.NewLoopback()
	newHost := func(name string) (*aglet.Host, *aglet.Registry) {
		reg := aglet.NewRegistry()
		reg.Register("mba", func() aglet.Aglet { return &tapMBA{log: log, host: name} })
		h := aglet.NewHost(name, reg)
		lb.Attach(h)
		t.Cleanup(func() { h.Close() })
		return h, reg
	}
	var servers []*marketplace.Server
	var stops []string
	tenth := 0.1 // a variable, so that tenth+0.2 is float64 arithmetic
	for i := 1; i <= markets; i++ {
		name := fmt.Sprintf("market-%d", i)
		host, reg := newHost(name)
		cat := catalog.New()
		products := append(marketProducts(name), &catalog.Product{ID: name + ":lap3", Name: "<Fast> & Light",
			Category: "laptop", Terms: map[string]float64{"ssd": tenth + 0.2, "light": 1e21}, PriceCents: 99999, SellerID: name, Stock: 2})
		for _, p := range products {
			if err := cat.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		mp, err := marketplace.NewServer(host, cat, reg)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, mp)
		stops = append(stops, name)
	}
	if prepare != nil {
		prepare(t, servers)
	}
	home, reg := newHost("buyer-server")
	reg.Register("tap-bsma", func() aglet.Aglet { return &tapBSMA{log: log} })
	if _, err := home.Create("tap-bsma", BSMAID, nil); err != nil {
		t.Fatal(err)
	}

	id := mbaID(spec.TaskID)
	init, err := aglet.Encode("mba", mbaState{
		mbaHeader: mbaHeader{UserID: "gold", Spec: spec, Token: "token", Nonce: "nonce", Response: "response"},
		It:        aglet.NewItinerary(home.Name(), stops...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.Create("mba", id, init.Data); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Send(testCtx(t), id, aglet.Message{Kind: kindEmbark}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-log.home:
	case <-time.After(10 * time.Second):
		t.Fatal("the MBA never came home")
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return append([]string(nil), log.lines...)
}

// TestMBATripBytesGolden pins the bytes a Mobile Buyer Agent moves as on a
// trip: each migration image, labelled with the host it lands on, and the
// mba-home frame, for a Fig 4.2 query over two marketplaces, a Fig 4.3
// list-price buy that finds its product at the second, and a bid. The
// products carry a name the encoder escapes and term weights of 0.1+0.2
// and 1e21. testdata/trip/<row>.golden holds one line per image or frame.
func TestMBATripBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		markets int
		spec    TaskSpec
		prepare func(*testing.T, []*marketplace.Server)
	}{
		{"query", 2, TaskSpec{TaskID: "trip-q", Kind: TaskQuery,
			Query: catalog.Query{Category: "laptop", Terms: []string{"ssd", "light"}}}, nil},
		{"buy", 2, TaskSpec{TaskID: "trip-b", Kind: TaskBuy, ProductID: "market-2:lap3"}, nil},
		{"bid", 1, TaskSpec{TaskID: "trip-a", Kind: TaskAuction, AuctionID: "auc-000001", BudgetCents: 10000},
			func(t *testing.T, mps []*marketplace.Server) {
				if _, err := mps[0].AuctionOpen("market-1:lap3", 0); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tapTrip(t, tc.markets, tc.spec, tc.prepare)
			want, err := os.ReadFile(filepath.Join("testdata", "trip", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			if len(got) != len(wantLines) {
				t.Fatalf("the trip moved as %d images and frames, want %d:\n%s", len(got), len(wantLines), strings.Join(got, "\n"))
			}
			for i, line := range got {
				if line != wantLines[i] {
					t.Errorf("line %d:\n%s\nwant\n%s", i+1, line, wantLines[i])
				}
			}
		})
	}
}

// TestRawHaulEncodesAsDecoded holds a haul kept as the bytes a marketplace
// answered to the bytes of the same haul decoded into MarketResults: as it
// leaves the marketplace, after a migration decodes and encodes it again,
// and once the BRA decodes it. The rows cover matches that are absent, null,
// empty and present, a name the encoder escapes, escaped or not on arrival,
// and scores of 0.1+0.2 and 1e21.
func TestRawHaulEncodesAsDecoded(t *testing.T) {
	tenth := 0.1
	p := &catalog.Product{ID: "p", Name: "<Fast> & Light", Category: "laptop",
		Terms: map[string]float64{"ssd": tenth + 0.2, "light": 1e21}, PriceCents: 1}
	reply := func(matches []catalog.Match) string {
		msg, err := aglet.Encode(marketplace.KindQuery, marketplace.QueryReply{Market: "m", Matches: matches})
		if err != nil {
			t.Fatal(err)
		}
		return string(msg.Data)
	}
	for _, tc := range []struct{ name, reply string }{
		{"absent", `{"market":"m"}`},
		{"null", reply(nil)},
		{"empty", reply([]catalog.Match{})},
		{"matches", reply([]catalog.Match{{Product: p, Score: tenth + 0.2}, {Product: p, Score: 1e21}})},
		{"unescaped", strings.NewReplacer(`\u003c`, "<", `\u003e`, ">", `\u0026`, "&").Replace(reply([]catalog.Match{{Product: p}}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := aglet.Message{Kind: marketplace.KindQuery, Data: []byte(tc.reply)}
			var qr marketplace.QueryReply
			if err := aglet.Decode(msg, &qr); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal([]MarketResult{{Market: "m", Matches: qr.Matches}, {Market: "n", Err: "unreachable"}})
			if err != nil {
				t.Fatal(err)
			}
			var raw queryHaul
			if err := aglet.Decode(msg, &raw); err != nil {
				t.Fatal(err)
			}
			carried, err := json.Marshal([]marketHaul{{Market: "m", Matches: raw.Matches}, {Market: "n", Err: "unreachable"}})
			if err != nil {
				t.Fatal(err)
			}
			var st mbaState
			if err := json.Unmarshal(carried, &st.Results); err != nil {
				t.Fatal(err)
			}
			moved, err := json.Marshal(st.Results)
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.result()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := json.Marshal(res.Results)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				stage string
				data  []byte
			}{{"at the marketplace", carried}, {"after a migration", moved}, {"decoded by the BRA", decoded}} {
				if string(got.data) != string(want) {
					t.Errorf("%s: %s\nwant %s", got.stage, got.data, want)
				}
			}
		})
	}
}
