// Package buyerserver implements the paper's Buyer Agent Server — "also the
// proposed consumer recommendation mechanism" (§3.2 item 3) — with the full
// agent cast of Fig 3.2:
//
//   - BSMA, the Buyer Server Management Agent: registration/login, agent
//     management, BSMDB bookkeeping, MBA authentication on return.
//   - HttpA, the web interface agent: translates web requests into agent
//     messages (see http.go).
//   - PA, the single Profile Agent: has the Fig 4.4 update rule applied to
//     the consumer's profile on every observed behaviour.
//   - BRA, one Buyer Recommend Agent per online consumer: loads the
//     profile, launches shopping tasks, generates recommendation
//     information. Deactivated while its MBA travels (§4.1 principle 3).
//   - MBA, the Mobile Buyer Agent: migrates across marketplaces executing
//     the task, then returns and authenticates to the BSMA (§4.1
//     principle 2).
//
// plus UserDB (accounts, transactions, offline-result inbox) and BSMDB
// (MBA trip records, its creation marker) on the kvstore substrate.
// A consumer's profile has one home, the community engine: the PA sends
// its evidence to the shard owner, which applies the update.
//
// The three workflows of §4 are implemented end to end with the exact step
// numbering of Figs 4.1–4.3; see workflows.go and the trace package.
package buyerserver

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/coordinator"
	"agentrec/internal/kvstore"
	"agentrec/internal/ops"
	"agentrec/internal/recommend"
	"agentrec/internal/security"
	"agentrec/internal/trace"
)

// Well-known agent ids on a buyer agent server.
const (
	BSMAID  = coordinator.BSMAID
	PAID    = "pa"
	HttpAID = "httpa"
)

// UserDB bucket names.
const (
	bucketUsers = "users"
	bucketTxns  = "txns"
	bucketInbox = "inbox"
)

// BSMDB bucket names.
const (
	bucketMBAs = "mbas"
	bucketMeta = "meta"
)

// Errors reported by the server.
var (
	ErrUserExists    = errors.New("buyerserver: user already registered")
	ErrUnknownUser   = errors.New("buyerserver: user not registered")
	ErrNotLoggedIn   = errors.New("buyerserver: user not logged in")
	ErrAlreadyOnline = errors.New("buyerserver: user already logged in")
	ErrNoMarkets     = errors.New("buyerserver: no marketplaces known")
	ErrUnknownMarket = errors.New("buyerserver: itinerary names a marketplace this server does not know")
	ErrAuthFailed    = errors.New("buyerserver: returning MBA failed authentication")
	ErrClosed        = errors.New("buyerserver: server closed")
)

// UserRecord is the UserDB row for a registered consumer.
type UserRecord struct {
	ID           string    `json:"id"`
	RegisteredAt time.Time `json:"registered_at"`
	Logins       int       `json:"logins"`
	Online       bool      `json:"online"`
}

// MBARecord is the BSMDB row tracking a dispatched Mobile Buyer Agent
// (§4.1 principle 2: "BRA will note BSMA to keep the MBA's information").
type MBARecord struct {
	MBAID     string   `json:"mba_id"`
	TaskID    string   `json:"task_id"`
	UserID    string   `json:"user_id"`
	Kind      string   `json:"kind"`
	Status    string   `json:"status"` // "dispatched", "returned", "rejected"
	Itinerary []string `json:"itinerary"`
}

// Server is one Buyer Agent Server. Construct with New; always Close it.
type Server struct {
	host       *aglet.Host
	reg        *aglet.Registry
	engine     *recommend.Engine
	writes     recommend.Writer // community writes; the engine unless routed
	userDB     *kvstore.Store
	bsmDB      *kvstore.Store
	tracer     *trace.Recorder
	signer     *security.Signer
	tokens     *security.TokenIssuer
	challenger *security.Challenger
	events     *ops.Bus            // event plane (nil = /events disabled; see events.go)
	metrics    func() ops.Snapshot // /metrics/snapshot source (nil = own engine only)
	markets    []string            // MBA itinerary, fixed at New

	mu       sync.Mutex
	pending  map[string]chan TaskResult
	taskSeq  int
	closed   bool
	tokenTTL time.Duration // mbaTokenTTL; tests shorten it
	stateDir string
}

// Option configures a Server.
type Option func(*Server)

// WithTracer records workflow steps into r.
func WithTracer(r *trace.Recorder) Option {
	return func(s *Server) { s.tracer = r }
}

// WithMarkets sets the marketplaces Mobile Buyer Agents visit, in itinerary
// order.
func WithMarkets(addrs ...string) Option {
	return func(s *Server) { s.markets = append([]string(nil), addrs...) }
}

// WithCommunityWriter routes community writes — profile installs, the
// PA's profile updates and purchase records — through w instead of the local engine. This is the
// replication seam: in a multi-server deployment w is a recommend.Router
// that forwards each write to the shard owner's server, while reads
// (recommendations) keep answering from the local engine's replica.
func WithCommunityWriter(w recommend.Writer) Option {
	return func(s *Server) { s.writes = w }
}

// WithStateDir persists the mechanism's databases under dir (created if
// absent): UserDB (accounts, transactions, inbox) in userdb.wal
// and BSMDB (MBA trip records, creation marker) in bsmdb.wal, both
// WAL-backed and recovered on New.
func WithStateDir(dir string) Option {
	return func(s *Server) { s.stateDir = dir }
}

// New creates a Buyer Agent Server on host, wiring all resident agents. The
// registry must be host-specific: New registers the bsma/pa/httpa/bra/mba
// factories on it. engine must not be nil — pass the platform's shared
// engine built over the integrated catalog.
//
// Creation follows Fig 4.1: the server requests admission from the
// Coordinator Agent behind coordCA (step 1), and the BSMA arrives by
// dispatch (steps 2–3) and sets up PA, HttpA and the databases (steps 4–6).
// coordCA must not be nil.
func New(host *aglet.Host, reg *aglet.Registry, engine *recommend.Engine, coordCA *aglet.Proxy, opts ...Option) (*Server, error) {
	signer, err := security.NewRandomSigner()
	if err != nil {
		return nil, fmt.Errorf("buyerserver: %w", err)
	}
	s := &Server{
		host:     host,
		reg:      reg,
		engine:   engine,
		signer:   signer,
		pending:  make(map[string]chan TaskResult),
		tokenTTL: mbaTokenTTL,
	}
	for _, opt := range opts {
		opt(s)
	}
	// Close any stores this constructor opened if a later setup step fails,
	// so a failed New never leaks WAL file handles.
	var opened []*kvstore.Store
	ok := false
	defer func() {
		if !ok {
			for _, db := range opened {
				db.Close()
			}
		}
	}()
	if s.stateDir != "" {
		if err := os.MkdirAll(s.stateDir, 0o755); err != nil {
			return nil, fmt.Errorf("buyerserver: creating state dir: %w", err)
		}
		db, err := kvstore.Open(filepath.Join(s.stateDir, "userdb.wal"))
		if err != nil {
			return nil, fmt.Errorf("buyerserver: opening UserDB: %w", err)
		}
		s.userDB = db
		opened = append(opened, db)
		if db, err = kvstore.Open(filepath.Join(s.stateDir, "bsmdb.wal")); err != nil {
			return nil, fmt.Errorf("buyerserver: opening BSMDB: %w", err)
		}
		s.bsmDB = db
		opened = append(opened, db)
	} else {
		s.userDB, s.bsmDB = kvstore.New(), kvstore.New()
	}
	s.tokens = security.NewTokenIssuer(s.signer, nil)
	s.challenger = security.NewChallenger(s.signer)
	if s.engine == nil {
		return nil, errors.New("buyerserver: nil recommendation engine")
	}
	if coordCA == nil {
		return nil, errors.New("buyerserver: nil coordinator agent proxy")
	}
	if s.writes == nil {
		s.writes = s.engine
	}

	pa, httpa, bra := s.paHandlers(), s.httpaHandlers(), s.braHandlers()
	reg.Register(coordinator.BSMAType, func() aglet.Aglet { return newBSMA(s) })
	reg.Register("pa", func() aglet.Aglet { return &resident{h: pa} })
	reg.Register("httpa", func() aglet.Aglet { return &resident{h: httpa} })
	reg.Register("bra", func() aglet.Aglet { return &braAgent{resident: resident{h: bra}} })
	RegisterMBAType(reg)

	// Fig 4.1 step 1: ask the coordinator to set us up; the CA creates and
	// dispatches the BSMA (steps 2–3), which performs steps 4–6 in its
	// OnArrival on this host.
	req, err := aglet.Encode(coordinator.KindAdmit, coordinator.AdmitRequest{Name: host.Name(), Addr: host.Name()})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := coordCA.Send(ctx, req); err != nil {
		return nil, fmt.Errorf("buyerserver: admission: %w", err)
	}
	if err := s.waitFor(ctx, BSMAID); err != nil {
		return nil, fmt.Errorf("buyerserver: BSMA never arrived: %w", err)
	}
	ok = true
	return s, nil
}

// waitFor polls until agent id is live on the host or ctx expires.
func (s *Server) waitFor(ctx context.Context, id string) error {
	for !s.host.Has(id) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Host returns the server's aglet host.
func (s *Server) Host() *aglet.Host { return s.host }

// Engine returns the recommendation engine.
func (s *Server) Engine() *recommend.Engine { return s.engine }

// Markets returns the marketplaces MBAs will visit, fixed at New.
func (s *Server) Markets() []string {
	return append([]string(nil), s.markets...)
}

// Close shuts down all resident agents and the databases.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.host.Close()
	if dberr := s.userDB.Close(); err == nil {
		err = dberr
	}
	if dberr := s.bsmDB.Close(); err == nil {
		err = dberr
	}
	return err
}

// --- consumer account operations (driven through the agents) ---
//
// Like tasks, account operations enter the mechanism at HttpA, the web
// interface agent, which hands them to the BSMA.

// Register creates a consumer account and an empty profile. The profile is
// installed in the community engine, replacing any community profile the
// consumer had before registering. Per §4.1 principle 1, no BRA is created
// at registration.
func (s *Server) Register(ctx context.Context, userID string) error {
	_, err := s.sendHttpA(ctx, kindRegister, userReq{UserID: userID})
	return err
}

// Login brings the consumer online: the BSMA creates their BRA and loads
// the profile (§4.1 principle 1). Results that completed while the consumer
// was offline are returned (§3.2: the mechanism serves consumers offline).
func (s *Server) Login(ctx context.Context, userID string) ([]TaskResult, error) {
	reply, err := s.sendHttpA(ctx, kindLogin, userReq{UserID: userID})
	if err != nil {
		return nil, err
	}
	var lr loginReply
	if err := aglet.Decode(reply, &lr); err != nil {
		return nil, err
	}
	return lr.Inbox, nil
}

// Logout takes the consumer offline and terminates their BRA (§4.1
// principle 1).
func (s *Server) Logout(ctx context.Context, userID string) error {
	_, err := s.sendHttpA(ctx, kindLogout, userReq{UserID: userID})
	return err
}

// Recommendations returns personalized recommendations outside any task
// (the "browsing" entry of Fig 3.2).
func (s *Server) Recommendations(userID, category string, n int) ([]recommend.Rec, error) {
	return s.engine.Recommend(recommend.StrategyAuto, userID, category, n)
}

// sendHttpA hands one request to HttpA, where the buyer enters the
// mechanism, bounded by the agent timeout: every hop the request makes
// shares the one deadline.
func (s *Server) sendHttpA(ctx context.Context, kind string, v any) (aglet.Message, error) {
	msg, err := aglet.Encode(kind, v)
	if err != nil {
		return aglet.Message{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, agentTimeout)
	defer cancel()
	return s.host.Send(ctx, HttpAID, msg)
}

func braID(userID string) string { return "bra:" + userID }

// nextTaskID allocates a unique task id.
func (s *Server) nextTaskID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taskSeq++
	return fmt.Sprintf("task-%06d", s.taskSeq)
}

// registerPending creates the rendezvous channel the task's waiter blocks
// on. The channel is buffered so a completion with no waiter (consumer
// logged out) never blocks the BSMA.
func (s *Server) registerPending(taskID string) chan TaskResult {
	ch := make(chan TaskResult, 1)
	s.mu.Lock()
	s.pending[taskID] = ch
	s.mu.Unlock()
	return ch
}

func (s *Server) fulfil(taskID string, res TaskResult) {
	s.mu.Lock()
	ch, ok := s.pending[taskID]
	delete(s.pending, taskID)
	s.mu.Unlock()
	if ok {
		ch <- res
	}
}

func (s *Server) dropPending(taskID string) {
	s.mu.Lock()
	delete(s.pending, taskID)
	s.mu.Unlock()
}
