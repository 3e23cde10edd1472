package buyerserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/marketplace"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// Message kinds exchanged among the mechanism's agents. Coordination is
// exclusively by message passing (§4.1 principle 6).
const (
	kindRegister = "register"
	kindLogin    = "login"
	kindLogout   = "logout"
	kindHTTPTask = "http-task"
	kindTask     = "task"
	kindEmbark   = "embark"
	kindMBAHome  = "mba-home"
	kindTaskDone = "task-complete"
	kindObserve  = "observe-batch"
	kindOK       = "ok"
)

type userReq struct {
	UserID string `json:"user_id"`
}

type loginReply struct {
	Inbox []TaskResult `json:"inbox,omitempty"`
}

type taskReq struct {
	UserID string   `json:"user_id"`
	Spec   TaskSpec `json:"spec"`
}

type taskAck struct {
	TaskID string `json:"task_id"`
	MBAID  string `json:"mba_id"`
}

// mbaState is everything a Mobile Buyer Agent carries: its assignment, its
// route, what it has gathered, and its credentials for re-entry (§4.1
// principle 2). It is the agent's serialized form for every migration.
type mbaState struct {
	mbaHeader
	It      aglet.Itinerary   `json:"itinerary"`
	Results []MarketResult    `json:"results,omitempty"`
	Sale    *marketplace.Sale `json:"sale,omitempty"`
}

// mbaHeader is the part of a returning MBA's state the BSMA reads: whom it
// works for, its assignment, its credentials and where it went. The BSMA
// authenticates from the header alone and hands the MBA's bytes on to the
// BRA as they came home, so the haul is decoded once, by the BRA.
type mbaHeader struct {
	UserID   string   `json:"user_id"`
	Spec     TaskSpec `json:"spec"`
	Token    string   `json:"token"`
	Nonce    string   `json:"nonce"`
	Response string   `json:"response"`
	TripLog  []string `json:"trip_log,omitempty"`
}

type mbaHomeReply struct {
	Accepted bool `json:"accepted"`
}

// observeEvent is one behavioural observation sent to the Profile Agent.
type observeEvent struct {
	Evidence profile.Evidence  `json:"evidence"`
	Sale     *marketplace.Sale `json:"sale,omitempty"`
}

type observeBatch struct {
	UserID   string         `json:"user_id"`
	Events   []observeEvent `json:"events"`
	Workflow string         `json:"workflow"`
	Step     int            `json:"step"`
}

// resident is a stateless agent that answers through its message table,
// which every instance of its type shares. Agents with state embed it and
// add their callbacks.
type resident struct {
	aglet.Base
	h aglet.Handlers
}

func (r *resident) HandleMessage(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	return r.h.Handle(ctx, msg)
}

func agentCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// --- BSMA -------------------------------------------------------------

// bsmaAgent is the Buyer Server Management Agent: "the manager of Buyer
// Agent Server" (§3.3) — registration and login, agent management, and the
// authentication gate for returning MBAs. It embeds the embryo the CA
// dispatched, and with it the embryo's state.
type bsmaAgent struct {
	coordinator.GenericBSMA
	srv *Server
	h   aglet.Handlers
}

func newBSMA(s *Server) *bsmaAgent {
	a := &bsmaAgent{srv: s}
	a.h = aglet.Handlers{kindMBAHome: a.mbaHome}
	aglet.On(a.h, kindRegister, a.register)
	aglet.On(a.h, kindLogin, a.login)
	aglet.On(a.h, kindLogout, a.logout)
	aglet.On(a.h, kindTask, a.assignTask)
	return a
}

func (a *bsmaAgent) HandleMessage(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	return a.h.Handle(ctx, msg)
}

// OnArrival completes the Fig 4.1 creation: the BSMA just landed
// (dispatched by the CA) and performs steps 4–6: create the Profile Agent,
// create the HttpA agent, initialize the databases.
func (a *bsmaAgent) OnArrival(*aglet.Context) error {
	s := a.srv
	s.tracer.Record("creation", 4, "BSMA", "PA", "create profile agent")
	if _, err := s.host.Create("pa", PAID, nil); err != nil {
		return fmt.Errorf("buyerserver: creating PA: %w", err)
	}
	s.tracer.Record("creation", 5, "BSMA", "HttpA", "create HttpA agent")
	if _, err := s.host.Create("httpa", HttpAID, nil); err != nil {
		return fmt.Errorf("buyerserver: creating HttpA: %w", err)
	}
	s.tracer.Record("creation", 6, "BSMA", "DB", "initialize UserDB and BSMDB")
	if err := s.userDB.Put(bucketMeta, "created", []byte(s.host.Name())); err != nil {
		return err
	}
	return s.bsmDB.Put(bucketMeta, "created", []byte(s.host.Name()))
}

func (a *bsmaAgent) register(_ *aglet.Context, req userReq) (aglet.Message, error) {
	s := a.srv
	userID := req.UserID
	exists, err := s.userDB.Has(bucketUsers, userID)
	if err != nil {
		return aglet.Message{}, err
	}
	if exists {
		return aglet.Message{}, fmt.Errorf("%w: %s", ErrUserExists, userID)
	}
	rec := UserRecord{ID: userID, RegisteredAt: time.Now()}
	if err := s.userDB.EncodeJSON(bucketUsers, userID, rec); err != nil {
		return aglet.Message{}, err
	}
	p := profile.NewProfile(userID)
	if err := s.storeProfile(p); err != nil {
		return aglet.Message{}, err
	}
	if err := s.writes.SetProfile(p); err != nil {
		return aglet.Message{}, err
	}
	return aglet.Message{Kind: kindOK}, nil
}

func (a *bsmaAgent) login(_ *aglet.Context, req userReq) (loginReply, error) {
	s := a.srv
	userID := req.UserID
	var rec UserRecord
	if err := s.userDB.DecodeJSON(bucketUsers, userID, &rec); err != nil {
		return loginReply{}, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	id := braID(userID)
	if s.host.Has(id) {
		return loginReply{}, fmt.Errorf("%w: %s", ErrAlreadyOnline, userID)
	}
	if s.host.HasStored(id) {
		// A parked BRA from an interrupted session: revive it.
		if _, err := s.host.Activate(id); err != nil {
			return loginReply{}, err
		}
	} else {
		if _, err := s.host.Create("bra", id, []byte(userID)); err != nil {
			return loginReply{}, err
		}
	}
	rec.Logins++
	rec.Online = true
	if err := s.userDB.EncodeJSON(bucketUsers, userID, rec); err != nil {
		return loginReply{}, err
	}
	// Deliver results that completed while the consumer was offline.
	var inbox []TaskResult
	entries, err := s.userDB.Scan(bucketInbox, userID+"/")
	if err != nil {
		return loginReply{}, err
	}
	for _, e := range entries {
		var res TaskResult
		if err := json.Unmarshal(e.Value, &res); err == nil {
			inbox = append(inbox, res)
		}
		if err := s.userDB.Delete(bucketInbox, e.Key); err != nil {
			return loginReply{}, err
		}
	}
	return loginReply{Inbox: inbox}, nil
}

func (a *bsmaAgent) logout(_ *aglet.Context, req userReq) (aglet.Message, error) {
	s := a.srv
	userID := req.UserID
	id := braID(userID)
	switch {
	case s.host.Has(id):
		if err := s.host.Dispose(id); err != nil {
			return aglet.Message{}, err
		}
	case s.host.HasStored(id):
		if err := s.host.DiscardStored(id); err != nil {
			return aglet.Message{}, err
		}
	default:
		return aglet.Message{}, fmt.Errorf("%w: %s", ErrNotLoggedIn, userID)
	}
	var rec UserRecord
	if err := s.userDB.DecodeJSON(bucketUsers, userID, &rec); err == nil {
		rec.Online = false
		if err := s.userDB.EncodeJSON(bucketUsers, userID, rec); err != nil {
			return aglet.Message{}, err
		}
	}
	return aglet.Message{Kind: kindOK}, nil
}

// assignTask runs the front half of Figs 4.2/4.3: hand the task to the BRA
// (step 3), record the MBA in BSMDB, deactivate the BRA (§4.1 principle 3),
// and send the MBA on its way.
func (a *bsmaAgent) assignTask(ctx *aglet.Context, req taskReq) (aglet.Message, error) {
	s := a.srv
	wf := workflowName(req.Spec.Kind)
	id := braID(req.UserID)

	// A consumer whose BRA is parked (another MBA in flight) is still
	// online: revive the BRA for this assignment.
	if s.host.HasStored(id) {
		if _, err := s.host.Activate(id); err != nil {
			return aglet.Message{}, err
		}
	}
	if !s.host.Has(id) {
		return aglet.Message{}, fmt.Errorf("%w: %s", ErrNotLoggedIn, req.UserID)
	}

	s.tracer.Record(wf, 3, "BSMA", "BRA", "assign "+string(req.Spec.Kind)+" task")
	cctx, cancel := agentCtx()
	defer cancel()
	msg, err := aglet.Encode(kindTask, req)
	if err != nil {
		return aglet.Message{}, err
	}
	reply, err := ctx.Send(cctx, id, msg)
	if err != nil {
		return aglet.Message{}, err
	}
	var ack taskAck
	if err := aglet.Decode(reply, &ack); err != nil {
		return aglet.Message{}, err
	}

	// Fig 4.2 step 8 (folded into step 7 in Fig 4.3): note the MBA in BSMDB
	// and park the BRA while its MBA travels.
	if req.Spec.Kind == TaskQuery {
		s.tracer.Record(wf, 8, "BSMA", "BSMDB", "record MBA; deactivate BRA")
	}
	mrec := MBARecord{
		MBAID: ack.MBAID, TaskID: ack.TaskID, UserID: req.UserID,
		Kind: string(req.Spec.Kind), Status: "dispatched", Itinerary: req.Spec.Markets,
	}
	if err := s.bsmDB.EncodeJSON(bucketMBAs, ack.MBAID, mrec); err != nil {
		return aglet.Message{}, err
	}
	if err := s.host.Deactivate(id); err != nil {
		return aglet.Message{}, fmt.Errorf("buyerserver: parking BRA: %w", err)
	}
	// Send the MBA off; the reply comes back before the trip starts, and
	// the journey then proceeds on the MBA's own goroutine.
	if _, err := ctx.Send(cctx, ack.MBAID, aglet.Message{Kind: kindEmbark}); err != nil {
		return aglet.Message{}, fmt.Errorf("buyerserver: embarking MBA: %w", err)
	}
	return reply, nil
}

// mbaHome runs the back half of the workflows: authenticate the returning
// MBA (§4.1 principle 2) from its header alone, revive the BRA and hand it
// the MBA's state — the bytes the MBA came home as, so the haul is decoded
// once, by the BRA. The BRA delivers the final answer to the waiting
// consumer.
func (a *bsmaAgent) mbaHome(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	var h mbaHeader
	if err := aglet.Decode(msg, &h); err != nil {
		return aglet.Message{}, err
	}
	s := a.srv
	wf := workflowName(h.Spec.Kind)
	mbaID := mbaID(h.Spec.TaskID)
	outStep, inStep, homeStep := 9, 10, 11
	if wf == "buy" {
		outStep, inStep, homeStep = 8, 9, 10
	}

	// Authentication gate: the travel token must verify for this exact
	// agent and the single-use nonce must answer the challenge.
	if _, err := s.tokens.Verify(h.Token, mbaID); err != nil {
		return a.rejectMBA(mbaID, h, err)
	}
	if err := s.challenger.VerifyResponse(mbaID, h.Nonce, h.Response); err != nil {
		return a.rejectMBA(mbaID, h, err)
	}
	// Any host the MBA visited could have rewritten the rest of its header:
	// it must still name the consumer and task kind this server dispatched
	// it for, as BSMDB recorded them in assignTask.
	if err := a.checkDispatch(mbaID, h); err != nil {
		return a.rejectMBA(mbaID, h, err)
	}

	// Replay the trip into the trace: each visited marketplace is one
	// out/in pair in the figure.
	for _, market := range h.TripLog {
		s.tracer.Record(wf, outStep, "MBA", "Marketplace", "migrate and execute at "+market)
		s.tracer.Record(wf, inStep, "Marketplace", "MBA", "results from "+market)
	}
	s.tracer.Record(wf, homeStep, "MBA", "BSMA", "return home and authenticate")
	a.updateMBARecord(mbaID, "returned")

	id := braID(h.UserID)
	if !s.host.Has(id) && !s.host.HasStored(id) {
		// Consumer logged out mid-task (§3.2: the mechanism keeps serving
		// offline consumers): update the profile directly and park the
		// result in the inbox for the next login.
		return a.completeOffline(ctx, msg)
	}
	if s.host.HasStored(id) {
		if _, err := s.host.Activate(id); err != nil {
			return aglet.Message{}, err
		}
	}
	s.tracer.Record(wf, homeStep+1, "BSMA", "BRA", "activate BRA; deliver results")
	cctx, cancel := agentCtx()
	defer cancel()
	if _, err := ctx.Send(cctx, id, aglet.Message{Kind: kindTaskDone, Data: msg.Data}); err != nil {
		return aglet.Message{}, err
	}
	return aglet.Encode(kindMBAHome, mbaHomeReply{Accepted: true})
}

// rejectMBA records the failed authentication and reports the outcome to
// any waiter. The MBA disposes itself regardless.
func (a *bsmaAgent) rejectMBA(mbaID string, h mbaHeader, cause error) (aglet.Message, error) {
	a.updateMBARecord(mbaID, "rejected")
	a.srv.fulfil(h.Spec.TaskID, TaskResult{
		TaskID: h.Spec.TaskID, UserID: h.UserID, Kind: h.Spec.Kind, AuthFailed: true,
	})
	_ = cause // recorded via status; the waiter sees ErrAuthFailed
	return aglet.Encode(kindMBAHome, mbaHomeReply{Accepted: false})
}

// checkDispatch returns an error unless h names the consumer and task kind
// mbaID was dispatched for.
func (a *bsmaAgent) checkDispatch(mbaID string, h mbaHeader) error {
	var rec MBARecord
	if err := a.srv.bsmDB.DecodeJSON(bucketMBAs, mbaID, &rec); err != nil {
		return fmt.Errorf("buyerserver: %s was never dispatched: %w", mbaID, err)
	}
	if h.UserID != rec.UserID || string(h.Spec.Kind) != rec.Kind {
		return fmt.Errorf("buyerserver: %s came home as %s's %s task, dispatched as %s's %s task",
			mbaID, h.UserID, h.Spec.Kind, rec.UserID, rec.Kind)
	}
	return nil
}

func (a *bsmaAgent) updateMBARecord(mbaID, status string) {
	var rec MBARecord
	if err := a.srv.bsmDB.DecodeJSON(bucketMBAs, mbaID, &rec); err != nil {
		return
	}
	rec.Status = status
	_ = a.srv.bsmDB.EncodeJSON(bucketMBAs, mbaID, rec)
}

// completeOffline finishes a task whose consumer is gone: profile updates
// still happen (through the PA) and the result waits in the inbox. It is
// the one homecoming on which the BSMA decodes the MBA's whole state.
func (a *bsmaAgent) completeOffline(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	s := a.srv
	var st mbaState
	if err := aglet.Decode(msg, &st); err != nil {
		return aglet.Message{}, err
	}
	if err := observe(ctx, observeBatchFor(st, workflowName(st.Spec.Kind), 0)); err != nil {
		return aglet.Message{}, err
	}
	res := TaskResult{
		TaskID: st.Spec.TaskID, UserID: st.UserID, Kind: st.Spec.Kind,
		Results: st.Results, Sale: st.Sale,
	}
	if err := s.userDB.EncodeJSON(bucketInbox, st.UserID+"/"+st.Spec.TaskID, res); err != nil {
		return aglet.Message{}, err
	}
	s.fulfil(st.Spec.TaskID, res)
	return aglet.Encode(kindMBAHome, mbaHomeReply{Accepted: true})
}

// --- BRA --------------------------------------------------------------

// braAgent is the Buyer Recommend Agent: one per online consumer, it loads
// the profile, launches Mobile Buyer Agents, and creates the recommendation
// information (§3.3). Its state is whom it serves; its handlers, shared by
// every BRA of the server, read the consumer from the message, which the
// BSMA addressed to this consumer's BRA.
type braAgent struct {
	resident
	st braState
}

// braHandlers is the BRA's message table.
func (s *Server) braHandlers() aglet.Handlers {
	h := aglet.Handlers{}
	aglet.On(h, kindTask, s.launch)
	aglet.On(h, kindTaskDone, s.complete)
	return h
}

type braState struct {
	UserID string `json:"user_id"`
}

func (a *braAgent) OnCreation(_ *aglet.Context, init []byte) error {
	a.st.UserID = string(init)
	return nil
}

func (a *braAgent) State() ([]byte, error) {
	img, err := aglet.Encode("bra", a.st)
	return img.Data, err
}

func (a *braAgent) SetState(data []byte) error {
	return aglet.Decode(aglet.Message{Kind: "bra", Data: data}, &a.st)
}

// launch performs Figs 4.2/4.3 steps 4–7: load the profile, create the MBA
// with its assignment and travel credentials, and note it to the BSMA.
func (s *Server) launch(_ *aglet.Context, req taskReq) (taskAck, error) {
	wf := workflowName(req.Spec.Kind)
	s.tracer.Record(wf, 4, "BRA", "UserDB", "load consumer profile")
	// The MBA carries no profile, so only its existence matters here; the
	// PA reads it where it is used (loadProfile).
	if ok, err := s.userDB.Has(bucketProfiles, req.UserID); err != nil || !ok {
		return taskAck{}, fmt.Errorf("%w: %s", ErrUnknownUser, req.UserID)
	}
	s.tracer.Record(wf, 5, "UserDB", "BRA", "profile loaded")

	id := mbaID(req.Spec.TaskID)
	nonce, err := s.challenger.Challenge(id)
	if err != nil {
		return taskAck{}, err
	}
	st := mbaState{
		mbaHeader: mbaHeader{
			UserID:   req.UserID,
			Spec:     req.Spec,
			Token:    s.tokens.Issue(id, string(req.Spec.Kind), s.tokenTTL),
			Nonce:    nonce,
			Response: s.challenger.Respond(nonce, id),
		},
		It: aglet.NewItinerary(s.host.Name(), req.Spec.Markets...),
	}
	init, err := aglet.Encode("mba", st)
	if err != nil {
		return taskAck{}, err
	}
	s.tracer.Record(wf, 6, "BRA", "MBA", "create MBA and assign task")
	if _, err := s.host.Create("mba", id, init.Data); err != nil {
		return taskAck{}, err
	}
	s.tracer.Record(wf, 7, "BRA", "BSMA", "note MBA information")
	return taskAck{TaskID: req.Spec.TaskID, MBAID: id}, nil
}

// complete turns what the MBA brought home into the consumer's answer:
// behaviour goes to the Profile Agent (Fig 4.2 steps 13–14), the
// recommendation information is generated per §4.4, and the BRA hands it
// to the waiting consumer (step 15; step 14 of Fig 4.3).
func (s *Server) complete(ctx *aglet.Context, st mbaState) (aglet.Message, error) {
	wf := workflowName(st.Spec.Kind)
	paStep, finalStep := 13, 15
	if wf == "buy" {
		paStep, finalStep = 12, 14
	}
	s.tracer.Record(wf, paStep, "BRA", "PA", "report consumer behaviour")
	if err := observe(ctx, observeBatchFor(st, wf, paStep+1)); err != nil {
		return aglet.Message{}, err
	}

	res := TaskResult{
		TaskID: st.Spec.TaskID, UserID: st.UserID, Kind: st.Spec.Kind,
		Results: st.Results, Sale: st.Sale,
	}
	switch st.Spec.Kind {
	case TaskQuery:
		// One snapshot serves both the query re-rank and the cross-sell:
		// all scoring in this task reads one community view, and the two
		// reads, asking for the same neighbours, share one search.
		snap := s.engine.Snapshot()
		recs, err := s.engine.RecommendForQueryWith(snap, st.UserID, res.AllMatches(), 10)
		if err != nil {
			return aglet.Message{}, err
		}
		res.Recommendations = recs
		if cross, err := s.engine.RecommendWith(snap, recommend.StrategyAuto, st.UserID, st.Spec.Query.Category, 5); err == nil {
			res.CrossSell = cross
		}
	default:
		// After a purchase or auction: cross-sell from the engine (§2.3's
		// "additional products in the checkout process").
		if cross, err := s.engine.Recommend(recommend.StrategyAuto, st.UserID, "", 5); err == nil {
			res.CrossSell = cross
		}
	}
	s.tracer.Record(wf, finalStep, "BRA", "Buyer", "recommendation information and results")
	s.fulfil(st.Spec.TaskID, res)
	return aglet.Message{Kind: kindOK}, nil
}

// --- PA ---------------------------------------------------------------

// paHandlers is the message table of the Profile Agent — exactly one per
// mechanism (§3.3) — which applies the Fig 4.4 update rule for every
// observed behaviour and keeps UserDB and the recommendation engine in
// sync.
func (s *Server) paHandlers() aglet.Handlers {
	h := aglet.Handlers{}
	aglet.On(h, kindObserve, s.updateProfile)
	return h
}

// observe reports a batch of behaviour to the Profile Agent.
func observe(ctx *aglet.Context, batch observeBatch) error {
	msg, err := aglet.Encode(kindObserve, batch)
	if err != nil {
		return err
	}
	cctx, cancel := agentCtx()
	defer cancel()
	_, err = ctx.Send(cctx, PAID, msg)
	return err
}

func (s *Server) updateProfile(_ *aglet.Context, batch observeBatch) (aglet.Message, error) {
	p, err := s.loadProfile(batch.UserID)
	if err != nil {
		if !errors.Is(err, ErrUnknownUser) {
			return aglet.Message{}, err
		}
		p = profile.NewProfile(batch.UserID)
	}
	for _, ev := range batch.Events {
		if err := p.Observe(ev.Evidence); err != nil {
			return aglet.Message{}, err
		}
		if ev.Sale != nil {
			if err := s.writes.RecordPurchaseAt(batch.UserID, ev.Sale.ProductID, time.Now()); err != nil {
				return aglet.Message{}, err
			}
			key := batch.UserID + "/" + ev.Sale.Receipt
			if err := s.userDB.EncodeJSON(bucketTxns, key, ev.Sale); err != nil {
				return aglet.Message{}, err
			}
		}
	}
	if batch.Step > 0 {
		s.tracer.Record(batch.Workflow, batch.Step, "PA", "UserDB", "update consumer profile")
	}
	if err := s.storeProfile(p); err != nil {
		return aglet.Message{}, err
	}
	if err := s.writes.SetProfile(p); err != nil {
		return aglet.Message{}, err
	}
	return aglet.Message{Kind: kindOK}, nil
}

// observeBatchFor derives the profile evidence from a completed task: the
// query itself for query tasks (what the consumer asked for), the bought
// product for purchases, the auction's product for bids.
func observeBatchFor(st mbaState, workflow string, step int) observeBatch {
	batch := observeBatch{UserID: st.UserID, Workflow: workflow, Step: step}
	switch st.Spec.Kind {
	case TaskQuery:
		terms := make(map[string]float64, len(st.Spec.Query.Terms))
		for _, t := range st.Spec.Query.Terms {
			terms[t] = 1
		}
		if st.Spec.Query.Category != "" || len(terms) > 0 {
			batch.Events = append(batch.Events, observeEvent{Evidence: profile.Evidence{
				Category:    st.Spec.Query.Category,
				Terms:       terms,
				SubCategory: st.Spec.Query.SubCategory,
				Behaviour:   profile.BehaviourQuery,
				At:          time.Now(),
			}})
		}
	case TaskBuy:
		for _, mr := range st.Results {
			for _, m := range mr.Matches {
				behaviour := profile.BehaviourQuery
				var sale *marketplace.Sale
				if st.Sale != nil && st.Sale.ProductID == m.Product.ID && mr.Sale != nil {
					behaviour = profile.BehaviourBuy
					sale = st.Sale
				}
				ev := m.Product.Evidence(behaviour)
				ev.At = time.Now()
				batch.Events = append(batch.Events, observeEvent{Evidence: ev, Sale: sale})
			}
		}
	case TaskAuction:
		for _, mr := range st.Results {
			for _, m := range mr.Matches {
				ev := m.Product.Evidence(profile.BehaviourBid)
				ev.At = time.Now()
				batch.Events = append(batch.Events, observeEvent{Evidence: ev})
			}
		}
	}
	return batch
}

// --- MBA --------------------------------------------------------------

// mbaID derives the agent id of a task's Mobile Buyer Agent.
func mbaID(taskID string) string { return "mba:" + taskID }

// RegisterMBAType registers the Mobile Buyer Agent factory on reg. Every
// host an MBA can land on — marketplaces included — must call this.
func RegisterMBAType(reg *aglet.Registry) {
	reg.Register("mba", func() aglet.Aglet { return &mbaAgent{} })
}

// mbaAgent is the Mobile Buyer Agent: created by a BRA with an assignment,
// it migrates along its itinerary, trades with each marketplace's MSA, and
// returns home to authenticate and deliver (§3.3, §4.1).
type mbaAgent struct {
	aglet.Base
	st mbaState
}

// OnCreation installs the state the BRA encoded: the MBA's assignment.
func (a *mbaAgent) OnCreation(_ *aglet.Context, init []byte) error { return a.SetState(init) }

func (a *mbaAgent) State() ([]byte, error) {
	img, err := aglet.Encode("mba", a.st)
	return img.Data, err
}

func (a *mbaAgent) SetState(data []byte) error {
	return aglet.Decode(aglet.Message{Kind: "mba", Data: data}, &a.st)
}

// HandleMessage answers the one message an MBA receives in its life: the
// embark order, which carries no payload.
func (a *mbaAgent) HandleMessage(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	return aglet.Handlers{kindEmbark: a.embark}.Handle(ctx, msg)
}

// embark accepts the order: the reply goes out first, then the runtime
// performs the requested dispatch, so the whole journey runs on this
// agent's own goroutine.
func (a *mbaAgent) embark(ctx *aglet.Context, _ aglet.Message) (aglet.Message, error) {
	ctx.RequestDispatch(a.st.It.Current())
	return aglet.Message{Kind: kindOK}, nil
}

// OnArrival is the MBA's program: work at a marketplace and hop on, or
// deliver at home and dispose.
func (a *mbaAgent) OnArrival(ctx *aglet.Context) error {
	here := ctx.HostName()
	if here == a.st.It.Home {
		a.deliver(ctx)
		ctx.RequestDispose()
		return nil
	}
	a.st.TripLog = append(a.st.TripLog, here)
	a.st.Results = append(a.st.Results, a.perform(ctx, here))

	next, it := a.st.It.Advance()
	a.st.It = it
	if a.st.Sale != nil {
		// Purchase made: the remaining stops are moot, head home.
		next = a.st.It.Home
		a.st.It.Index = len(a.st.It.Stops)
	}
	ctx.RequestDispatch(next)
	return nil
}

// OnDispatchFailure makes the MBA resilient to unreachable marketplaces: a
// failed hop is recorded as an error result for that stop and the trip
// continues to the next destination. If home itself is unreachable the
// agent disposes rather than haunt a marketplace forever; the waiting task
// times out and the BSMDB record stays "dispatched" for the operator.
func (a *mbaAgent) OnDispatchFailure(ctx *aglet.Context, dest string, err error) {
	if dest == a.st.It.Home {
		ctx.RequestDispose()
		return
	}
	a.st.Results = append(a.st.Results, MarketResult{Market: dest, Err: "unreachable: " + err.Error()})
	next, it := a.st.It.Advance()
	a.st.It = it
	ctx.RequestDispatch(next)
}

var _ aglet.DispatchFailureHandler = (*mbaAgent)(nil)

// deliver hands the gathered state to the BSMA and ends the trip. Delivery
// failures cannot be reported anywhere — the agent is the message — so the
// result is recorded in the Err field of a final synthetic MarketResult
// only when the send itself fails.
func (a *mbaAgent) deliver(ctx *aglet.Context) {
	cctx, cancel := agentCtx()
	defer cancel()
	msg, err := aglet.Encode(kindMBAHome, a.st)
	if err != nil {
		return
	}
	_, _ = ctx.Send(cctx, BSMAID, msg)
}

// perform executes the assignment against the local marketplace's MSA.
func (a *mbaAgent) perform(ctx *aglet.Context, market string) MarketResult {
	res := MarketResult{Market: market}
	switch a.st.Spec.Kind {
	case TaskQuery:
		var qr marketplace.QueryReply
		if err := a.call(ctx, marketplace.KindQuery, marketplace.QueryRequest{Query: a.st.Spec.Query}, &qr); err != nil {
			res.Err = err.Error()
			return res
		}
		res.Matches = qr.Matches
	case TaskBuy:
		a.performBuy(ctx, &res)
	case TaskAuction:
		a.performAuction(ctx, &res)
	default:
		res.Err = fmt.Sprintf("unknown task kind %q", a.st.Spec.Kind)
	}
	return res
}

func (a *mbaAgent) performBuy(ctx *aglet.Context, res *MarketResult) {
	var gr marketplace.GetReply
	if err := a.call(ctx, marketplace.KindGet, marketplace.GetRequest{ProductID: a.st.Spec.ProductID}, &gr); err != nil {
		res.Err = err.Error()
		return
	}
	res.Matches = []catalog.Match{{Product: gr.Product}}
	budget := a.st.Spec.BudgetCents

	if a.st.Spec.Probe {
		// Price discovery: open at 80% of list and raise below the ask
		// until the seller's concessions dry up; never buy.
		a.bargain(ctx, res, gr.Product.ID, int64(0.8*float64(gr.Product.PriceCents)), marketplace.ProbeNextOffer)
		return
	}
	if a.st.Spec.Negotiate && budget > 0 {
		within := func(offer, ask int64) (int64, bool) {
			next := marketplace.BuyerNextOffer(offer, ask, budget)
			return next, next <= offer
		}
		a.bargain(ctx, res, gr.Product.ID, min(int64(0.7*float64(gr.Product.PriceCents)), budget), within)
		return
	}
	var br marketplace.BuyReply
	err := a.call(ctx, marketplace.KindBuy, marketplace.BuyRequest{
		BuyerID: a.st.UserID, ProductID: a.st.Spec.ProductID, MaxPriceCents: budget,
	}, &br)
	if err != nil {
		res.Err = err.Error()
		return
	}
	res.Sale = &br.Sale
	a.st.Sale = &br.Sale
}

// bargain negotiates for productID with the local seller's MSA, opening
// with first and countering by next; a deal is the trip's purchase.
func (a *mbaAgent) bargain(ctx *aglet.Context, res *MarketResult, productID string, first int64, next func(offer, ask int64) (int64, bool)) {
	reply, err := marketplace.Bargain(first, next,
		func(offer int64) (marketplace.NegoReply, error) {
			var r marketplace.NegoReply
			err := a.call(ctx, marketplace.KindNegoOpen, marketplace.NegoOpenRequest{BuyerID: a.st.UserID, ProductID: productID, OfferCents: offer}, &r)
			return r, err
		},
		func(sessionID string, offer int64) (marketplace.NegoReply, error) {
			var r marketplace.NegoReply
			err := a.call(ctx, marketplace.KindNegoOffer, marketplace.NegoOfferRequest{SessionID: sessionID, OfferCents: offer}, &r)
			return r, err
		})
	if err != nil {
		res.Err = err.Error()
		return
	}
	res.Nego = &reply
	if reply.Accepted && reply.Sale != nil {
		res.Sale = reply.Sale
		a.st.Sale = reply.Sale
	}
}

// performAuction inspects the auction and places one bid within budget.
func (a *mbaAgent) performAuction(ctx *aglet.Context, res *MarketResult) {
	var st marketplace.AuctionStatus
	if err := a.call(ctx, marketplace.KindAuctionState, marketplace.AuctionCloseRequest{AuctionID: a.st.Spec.AuctionID}, &st); err != nil {
		res.Err = err.Error()
		return
	}
	// Fetch the product for the profile evidence.
	var gr marketplace.GetReply
	if err := a.call(ctx, marketplace.KindGet, marketplace.GetRequest{ProductID: st.ProductID}, &gr); err == nil {
		res.Matches = []catalog.Match{{Product: gr.Product}}
	}
	bid := nextBid(st, a.st.Spec.BudgetCents)
	if st.Closed || bid <= 0 {
		res.Auction = &st
		return
	}
	var after marketplace.AuctionStatus
	if err := a.call(ctx, marketplace.KindAuctionBid, marketplace.AuctionBidRequest{
		AuctionID: a.st.Spec.AuctionID, BidderID: a.st.UserID, AmountCents: bid,
	}, &after); err != nil {
		res.Err = err.Error()
		res.Auction = &st
		return
	}
	res.Auction = &after
}

// nextBid picks the minimal competitive bid within budget: 5% over the high
// bid (at least one dollar), or the reserve for an untouched auction. Zero
// means "do not bid".
func nextBid(st marketplace.AuctionStatus, budget int64) int64 {
	var bid int64
	if st.HighBid == 0 {
		bid = st.ReserveCents
		if bid == 0 {
			bid = 100
		}
	} else {
		inc := st.HighBid / 20
		if inc < 100 {
			inc = 100
		}
		bid = st.HighBid + inc
	}
	if bid > budget {
		return 0
	}
	return bid
}

// call sends one typed request to the local MSA and decodes the reply.
func (a *mbaAgent) call(ctx *aglet.Context, kind string, req, out any) error {
	cctx, cancel := agentCtx()
	defer cancel()
	msg, err := aglet.Encode(kind, req)
	if err != nil {
		return err
	}
	reply, err := ctx.Send(cctx, marketplace.MSAID, msg)
	if err != nil {
		return err
	}
	return aglet.Decode(reply, out)
}

// --- HttpA ------------------------------------------------------------

// httpaHandlers is the message table of HttpA, the web-interface agent: it
// receives the buyer's requests (Fig 4.2/4.3 step 1) and forwards them to
// the BSMA (step 2). The actual net/http plumbing lives in http.go and
// enters the mechanism through the Server methods, which send here.
// Account operations pass through to the BSMA untraced; the figures cover
// only the shopping workflows.
func (s *Server) httpaHandlers() aglet.Handlers {
	pass := func(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
		cctx, cancel := agentCtx()
		defer cancel()
		return ctx.Send(cctx, BSMAID, msg)
	}
	task := func(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
		var req taskReq
		if err := aglet.Decode(msg, &req); err != nil {
			return aglet.Message{}, err
		}
		wf := workflowName(req.Spec.Kind)
		s.tracer.Record(wf, 1, "Buyer", "HttpA", string(req.Spec.Kind)+" request")
		s.tracer.Record(wf, 2, "HttpA", "BSMA", "forward request")
		return pass(ctx, aglet.Message{Kind: kindTask, Data: msg.Data})
	}
	return aglet.Handlers{kindHTTPTask: task, kindRegister: pass, kindLogin: pass, kindLogout: pass}
}

// --- profile storage helpers ------------------------------------------

// loadProfile reads a consumer profile from UserDB.
func (s *Server) loadProfile(userID string) (*profile.Profile, error) {
	data, err := s.userDB.Get(bucketProfiles, userID)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	return profile.Unmarshal(data)
}

// storeProfile writes a consumer profile to UserDB.
func (s *Server) storeProfile(p *profile.Profile) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	return s.userDB.Put(bucketProfiles, p.UserID, data)
}
