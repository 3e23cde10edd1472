package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/marketplace"
	"agentrec/internal/platform"
	"agentrec/internal/recommend"
	"agentrec/internal/trace"
	"agentrec/internal/workload"
)

// shop-tasks: the paper's mechanism itself. A 10 000-consumer community,
// two marketplaces, 1 000 consumers registered and logged in through the
// buyer server's HTTP surface on a loopback listener, keep-alive. 70 % of
// tasks are Fig 4.2 queries (category 70 % in-taste, 30 % uniform, limit
// 20), 30 % Fig 4.3 buys, a third of those negotiated. Every task crosses
// HttpA, BSMA and BRA, sends a mobile MBA over aglet to the marketplaces
// and catalog, comes home to the re-rank and ends in the PA's profile
// write. Closed loop: a consumer waits for a task's answer.

const (
	shopActive = 1000 // consumers with a session; every task is one of theirs
	shopLimit  = 20
	shopStock  = 1 << 30 // no buy ever sells out
	shopRate   = 75      // tasks per second of budget in the timed phase: what the reference box completes
)

func shopInputs(e *env) (*inputs, error) {
	in, err := generate(e.seed,
		workload.Config{Users: e.users(10000), Products: 1200, Categories: 16},
		workload.TrafficConfig{MixRecommend: 0.7, MixPurchase: 0.3},
		0.3, altUniform)
	if err != nil {
		return nil, err
	}
	in.active = shopActive
	return in, nil
}

// negotiated says whether buy i haggles: one in three, fixed by (seed, i).
func (in *inputs) negotiated(i uint64) bool {
	return rand.New(rand.NewPCG(in.seed^0x6e65676f, i)).IntN(3) == 0
}

// taskSpec turns op i into the task its consumer assigns.
func (in *inputs) taskSpec(i uint64) (user string, spec buyerserver.TaskSpec, c class) {
	op, c := in.op(i)
	if c == classPurchase {
		spec = buyerserver.TaskSpec{Kind: buyerserver.TaskBuy, ProductID: op.ProductID}
		if in.negotiated(i) {
			spec.Negotiate = true
			spec.BudgetCents = in.price[op.ProductID]
		}
		return op.UserID, spec, classBuy
	}
	spec = buyerserver.TaskSpec{Kind: buyerserver.TaskQuery, Query: catalog.Query{Category: op.Category, Limit: shopLimit}}
	return op.UserID, spec, classRead
}

type shopWorld struct {
	p      *platform.Platform
	rec    *trace.Recorder
	ln     net.Listener
	server *http.Server
	client *http.Client
	base   string
}

func (w *shopWorld) Close() error {
	w.client.CloseIdleConnections()
	err := w.server.Close()
	if pErr := w.p.Close(); err == nil {
		err = pErr
	}
	return err
}

// post sends one JSON request over the keep-alive connection pool and
// decodes the answer, as a browser front end would.
func (w *shopWorld) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type taskRequest struct {
	UserID string               `json:"user_id"`
	Spec   buyerserver.TaskSpec `json:"spec"`
}

func buildShop(e *env, in *inputs) (*shopWorld, error) {
	products := make([]*catalog.Product, len(in.universe.Products))
	for i, p := range in.universe.Products {
		stocked := *p
		stocked.Stock = shopStock
		products[i] = &stocked
	}
	// The workflow recorder keeps every event of every task, so only the
	// traced run, which reads it, has one.
	var rec *trace.Recorder
	if e.trace {
		rec = trace.New()
	}
	p, err := platform.New(platform.Config{Marketplaces: 2, Products: products, Tracer: rec})
	if err != nil {
		return nil, err
	}
	if err := p.SeedCommunity(in.profiles, in.purchases); err != nil {
		p.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, err
	}
	w := &shopWorld{
		p: p, rec: rec, ln: ln,
		server: &http.Server{Handler: p.Buyer().HTTPHandler()},
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: e.workers, MaxConnsPerHost: e.workers},
		},
		base: "http://" + ln.Addr().String(),
	}
	go w.server.Serve(ln) // returns ErrServerClosed once Close is called
	for _, usr := range in.universe.Users[:min(in.active, len(in.universe.Users))] {
		id := map[string]string{"user_id": usr.ID}
		if err := w.post("/users", id, nil); err != nil {
			w.Close()
			return nil, err
		}
		if err := w.post("/login", id, nil); err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}

func runShopTasks(e *env, r *report) error {
	in, err := shopInputs(e)
	if err != nil {
		return err
	}
	before := liveHeap()
	w, err := setUp(e, r, func() (*shopWorld, error) { return buildShop(e, in) }, nil)
	if err != nil {
		return err
	}
	defer w.Close()

	// A buy that comes home without a sale is a failed op, whatever the
	// HTTP status said. buys counts the sales this program was told of.
	var buys atomic.Int64
	do := func(i uint64) (class, error) {
		user, spec, c := in.taskSpec(i)
		var res buyerserver.TaskResult
		if err := w.post("/tasks", taskRequest{user, spec}, &res); err != nil {
			return c, err
		}
		if c == classBuy {
			if res.Sale == nil {
				return c, fmt.Errorf("buy of %s by %s came home without a sale", spec.ProductID, user)
			}
			buys.Add(1)
		}
		return c, nil
	}
	base := e.warmUp(r, 250, do, before, nil)

	if e.trace {
		if err := shopLayers(e, r, in, w, base, do, &buys); err != nil {
			return err
		}
	} else {
		closed := timedOps(e.workers, uint64(shopRate*e.seconds), base, do)
		r.count(closed)
		r.endToEnd(closed, closed.lat[classRead], closed.lat[classBuy])
	}
	sales := 0
	for _, m := range w.p.Markets {
		sales += len(m.Sales())
	}
	r.check("every_buy_sold", int64(sales) == buys.Load(), "%d sales on the marketplaces for %d buys answered with a sale", sales, buys.Load())
	return nil
}

// echoAglet answers every message with itself: the cheapest possible
// agent, so timing it times aglet alone.
type echoAglet struct{ aglet.Base }

func (echoAglet) HandleMessage(_ *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	return msg, nil
}

// shopLayers is the traced run. Its replays buy again, so they add to buys.
func shopLayers(e *env, r *report, in *inputs, w *shopWorld, base uint64, plain doFunc, buys *atomic.Int64) error {
	tr := newTracer()
	srv, eng := w.p.Buyer(), w.p.Engine
	ctx := context.Background()
	stockedAt := make(map[string]*marketplace.Server) // product -> the marketplace that stocks it
	for _, m := range w.p.Markets {
		for _, prod := range m.Catalog().All() {
			stockedAt[prod.ID] = m
		}
	}
	ladder := func(i uint64) (class, error) {
		user, spec, c := in.taskSpec(i)
		var first firstError
		keep := first.keep
		var res buyerserver.TaskResult
		root := tr.do("buyerserver.http_hop", noParent, i, func() { keep(w.post("/tasks", taskRequest{user, spec}, &res)) })
		if c == classBuy {
			sold := func(ok bool, e error) {
				keep(e)
				if e == nil && !ok {
					keep(fmt.Errorf("buy of %s by %s ended without a sale", spec.ProductID, user))
				}
				if e == nil && ok {
					buys.Add(1)
				}
			}
			sold(res.Sale != nil, first.err)
			task := tr.do("buyerserver.run_task_buy", root, i, func() {
				res, e := srv.RunTask(ctx, user, spec)
				sold(res.Sale != nil, e)
			})
			m := stockedAt[spec.ProductID]
			if spec.Negotiate {
				tr.do("marketplace.haggle", task, i, func() {
					reply, e := m.HaggleToBudget(user, spec.ProductID, spec.BudgetCents)
					sold(reply.Sale != nil, e)
				})
			} else {
				tr.do("marketplace.buy", task, i, func() {
					_, e := m.Buy(user, spec.ProductID, 0)
					sold(true, e)
				})
			}
			return c, first.err
		}
		task := tr.do("buyerserver.run_task_query", root, i, func() {
			_, e := srv.RunTask(ctx, user, spec)
			keep(e)
		})
		for _, m := range w.p.Markets {
			q := tr.do("marketplace.query", task, i, func() { m.Query(spec.Query) })
			tr.do("catalog.search", q, i, func() { m.Catalog().Search(spec.Query) })
		}
		tr.do("recommend.recommend_for_query", task, i, func() {
			_, e := eng.RecommendForQuery(user, res.AllMatches(), 10)
			keep(e)
		})
		tr.do("recommend.recommend", task, i, func() {
			_, e := eng.Recommend(recommend.StrategyAuto, user, spec.Query.Category, 5)
			keep(e)
		})
		return c, first.err
	}
	e.layerPhases(r, tr, base, classRead, plain, ladder,
		"buyerserver.run_task_query", "marketplace.buy", "marketplace.haggle")
	gap := tr.attributionGap("buyerserver.http_hop", func(i uint64) bool { _, _, c := in.taskSpec(i); return c == classRead })
	r.attribute("query", gap)
	if err := shopProbes(r, tr, in, w, buys); err != nil {
		return err
	}
	if e.spans != "" {
		return tr.write(e.spans)
	}
	return nil
}

// shopProbes times, on the now idle platform, what one task is made of:
// the steps the paper's figures number, the agent hops between them, the
// bytes and dispatches aglet moved, a login, and aglet's own send and
// dispatch with an agent that does nothing.
func shopProbes(r *report, tr *tracer, in *inputs, w *shopWorld, buys *atomic.Int64) error {
	srv := w.p.Buyer()
	ctx := context.Background()
	user := in.universe.Users[0].ID
	for _, probe := range []struct {
		steps string
		spec  buyerserver.TaskSpec
	}{
		{"buyerserver.steps_per_query", buyerserver.TaskSpec{Kind: buyerserver.TaskQuery, Query: catalog.Query{Category: in.inTaste[user], Limit: shopLimit}}},
		{"buyerserver.steps_per_buy", buyerserver.TaskSpec{Kind: buyerserver.TaskBuy, ProductID: in.universe.Products[0].ID}},
	} {
		w.rec.Reset()
		w.p.Loopback.ResetStats()
		res, err := srv.RunTask(ctx, user, probe.spec)
		if err != nil {
			return err
		}
		if res.Sale != nil {
			buys.Add(1)
		}
		events := w.rec.Events()
		r.set(probe.steps, float64(len(events)), 1)
		if probe.spec.Kind == buyerserver.TaskQuery {
			var hops []int64
			for i := 1; i < len(events); i++ {
				hops = append(hops, int64(events[i].At.Sub(events[i-1].At)))
			}
			r.setTime("buyerserver.agent_hop_us", hops, 0.5)
			dispatches, _, moved := w.p.Loopback.Stats()
			r.set("aglet.dispatches_per_task", float64(dispatches), 1)
			r.set("aglet.bytes_per_task", float64(moved), 1)
		}
	}

	for range 20 {
		if err := srv.Logout(ctx, user); err != nil {
			return err
		}
		var err error
		tr.do("buyerserver.login", noParent, 0, func() { _, err = srv.Login(ctx, user) })
		if err != nil {
			return err
		}
	}

	// Two hosts of bench's own on the platform's loopback, and an echo
	// agent that is sent to and moved between them.
	reg := aglet.NewRegistry()
	reg.Register("echo", func() aglet.Aglet { return &echoAglet{} })
	hosts := [2]*aglet.Host{aglet.NewHost("bench-a", reg), aglet.NewHost("bench-b", reg)}
	for _, h := range hosts {
		w.p.Loopback.Attach(h)
		defer h.Close()
	}
	if _, err := hosts[0].Create("echo", "echo-1", nil); err != nil {
		return err
	}
	for k := range 200 {
		at, to := hosts[k%2], hosts[(k+1)%2]
		var err error
		tr.do("aglet.send", noParent, 0, func() { _, err = at.Send(ctx, "echo-1", aglet.Message{Kind: "ping"}) })
		if err != nil {
			return err
		}
		tr.do("aglet.dispatch", noParent, 0, func() { err = at.Dispatch(ctx, "echo-1", to.Name()) })
		if err != nil {
			return err
		}
	}
	tr.emit(r)
	return nil
}
