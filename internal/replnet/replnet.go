// Package replnet bridges the recommendation engine's replication layer
// (internal/recommend: Replicator, Router) onto the atp network transport,
// so Buyer Agent Servers in different processes replicate shards and route
// writes exactly like the in-process platform does with direct engine
// calls. It owns the JSON wire shapes of the journal frame's
// sub-operations; atp itself carries them as opaque payloads.
//
// Three pieces:
//
//   - Handler(engine) serves a server's journal surface: "tail" requests
//     from followers, "snap-page" requests transferring a whole shard in
//     bounded pages (the one catch-up path), and forwarded writes
//     ("set-profiles"; "observe", a consumer's evidence and purchases as one
//     write) from peers that do not own the consumer's shard. Install it
//     with atp.Server.SetJournalHandler. Every frame but the owner-map
//     probe is fenced against the engine's own ownership table, and a
//     forwarded write is admitted by the engine under the shard lock
//     (recommend.OwnedWriter).
//   - Peer implements recommend.Peer over an atp.Client — the follower
//     side of journal tailing.
//   - Writer implements recommend.Writer over an atp.Client — the
//     forwarding side of write routing (a recommend.Router's remote surface).
package replnet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"agentrec/internal/atp"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// Journal frame sub-operations.
const (
	kindTail        = "tail"
	kindSnapPage    = "snap-page"
	kindSetProfiles = "set-profiles"
	kindObserve     = "observe"
	kindOwnerMap    = "owner-map"
)

// wireCfg is the shared option state of Peer and Writer.
type wireCfg struct {
	owners *recommend.OwnershipTable
}

// Option configures the ownership stamp of a Peer or Writer.
type Option func(*wireCfg)

// WithOwnership stamps every outgoing request of a Peer or Writer with the
// current epoch of t, the sending server's ownership table, in place of the
// static epoch 1. The receiving Handler admits a frame only through its
// engine table's Fence — matching epoch, shard owned by the receiver, live
// lease — so a deposed owner replaying buffered frames at its old epoch is
// rejected loudly. Both sides of a deployment must agree on the map: a
// leased frame never passes a static handler, nor a static frame a handler
// whose map has moved on.
func WithOwnership(t *recommend.OwnershipTable) Option {
	return func(c *wireCfg) {
		if t != nil {
			c.owners = t
		}
	}
}

// maxTailBytes bounds a tail reply's raw encoded size. The reply travels
// as atp response.Data, which json.Marshal base64-encodes (4/3 expansion),
// so the raw budget is three quarters of the frame cap minus envelope
// slack — a reply at the bound still fits atp.MaxFrame after encoding.
// Replies over the bound are trimmed to a prefix of the records — the
// follower's cursor advances and the next pull continues — so a burst of
// large journal records never wedges replication on frame size. A reply
// that cannot shrink (a single oversized record) becomes the paged-transfer
// marker instead. A var so tests can shrink it.
var maxTailBytes = (atp.MaxFrame - (1 << 20)) / 4 * 3

// SetMaxTailBytes overrides the tail reply budget, returning a restore
// func. Integration tests outside the package (cmd/platformd) shrink it so
// modest write bursts exercise trimmed-tail replication — and the lag
// accounting layered on it — without multi-megabyte fixtures.
func SetMaxTailBytes(n int) (restore func()) {
	old := maxTailBytes
	maxTailBytes = n
	return func() { maxTailBytes = old }
}

// pageBudget is the per-entry byte budget handed to Engine.SnapshotPage:
// the tail budget minus slack for the page's JSON envelope, so a page at
// the budget still fits the frame after the base64 expansion maxTailBytes
// already prices in.
func pageBudget() int {
	if b := maxTailBytes - 1024; b > 0 {
		return b
	}
	return maxTailBytes/2 + 1
}

// maxForwardBytes bounds the profile payload of one forwarded write frame;
// larger batches are split into several frames, in order.
const maxForwardBytes = 4 << 20

// Every request carries OwnerEpoch, the sender's ownership map epoch, and a
// handler rejects frames whose stamp does not match its own table (0 =
// unstamped, never passes). Note the distinction from the tail/page Epoch
// field, which is the owner's journal-feed epoch (a replication cursor
// concern).

// ownerEpoch is a frame's OwnerEpoch as the sender's epoch source of the
// recommend.OwnedWriter that admits the frame's writes.
type ownerEpoch uint64

func (s ownerEpoch) Epoch() uint64 { return uint64(s) }

type tailRequest struct {
	Shard      int    `json:"shard"`
	Epoch      uint64 `json:"epoch"`
	Since      uint64 `json:"since"`
	OwnerEpoch uint64 `json:"owner_epoch,omitempty"`
}

type snapPageRequest struct {
	Shard      int    `json:"shard"`
	Epoch      uint64 `json:"epoch"`
	Seq        uint64 `json:"seq"`
	Token      string `json:"token,omitempty"`
	OwnerEpoch uint64 `json:"owner_epoch,omitempty"`
}

type setProfilesRequest struct {
	Profiles   [][]byte `json:"profiles"`
	OwnerEpoch uint64   `json:"owner_epoch,omitempty"`
}

// observeRequest forwards Engine.Observe: the consumer, every field of each
// event the Fig 4.4 update reads, so the owner installs the bytes a local
// observe would, and the purchases recorded in the same write.
type observeRequest struct {
	UserID     string                   `json:"user"`
	Evidence   []wireEvidence           `json:"evidence"`
	Purchases  []recommend.PurchasePair `json:"purchases,omitempty"`
	OwnerEpoch uint64                   `json:"owner_epoch,omitempty"`
}

// wireEvidence is profile.Evidence on the wire.
type wireEvidence struct {
	Category    string             `json:"category"`
	Terms       map[string]float64 `json:"terms,omitempty"`
	SubCategory string             `json:"sub_category,omitempty"`
	SubTerms    map[string]float64 `json:"sub_terms,omitempty"`
	Behaviour   profile.Behaviour  `json:"behaviour"`
	At          time.Time          `json:"at"`
}

// OwnerMapInfo is the owner-map frame's reply: the receiving server's view
// of the ownership map, fingerprinted. platformd's startup consistency
// check compares every peer's info against its own before serving, so
// -buyer-peers lists that disagree on order or -engine-shards values that
// differ fail loudly at startup instead of diverging replicas at runtime.
type OwnerMapInfo struct {
	Hash    string `json:"hash"`
	Epoch   uint64 `json:"epoch"`
	Shards  int    `json:"shards"`
	Servers int    `json:"servers"`
	Self    int    `json:"self"`
}

// Handler returns the journal surface for e, ready for
// atp.Server.SetJournalHandler. self and servers describe this server's
// position in the replicated deployment: Handler binds e as server self to
// the static epoch-1 map of servers (see recommend.Engine.BindOwnership),
// and fences with the engine's table from then on. A journal tail or
// snapshot page is served only when it passes the table's Fence, and a
// forwarded write is admitted by the engine under the shard lock through a
// recommend.OwnedWriter stamped with the frame's owner epoch: both need the
// stamp to match, this server to own the shard, and its lease to be live.
// So a frame for a shard this server does not own is refused loudly: peer
// lists that disagree on order (each side computing a different ownership
// map) fail on the first routed frame instead of silently diverging
// replicas. An engine already bound to another map or index cannot be
// fenced: its handler refuses every frame with the binding's error.
func Handler(e *recommend.Engine, self, servers int) atp.JournalHandler {
	table, err := e.BindOwnership(recommend.NewOwnershipTable(recommend.StaticOwnership(e.Shards(), servers)), self)
	if err != nil {
		return func(string, []byte) ([]byte, error) { return nil, err }
	}
	writer := func(senderEpoch uint64) recommend.OwnedWriter {
		return recommend.OwnedWriter{Local: e, Sender: ownerEpoch(senderEpoch)}
	}
	return func(kind string, data []byte) ([]byte, error) {
		switch kind {
		case kindTail:
			var req tailRequest
			if err := json.Unmarshal(data, &req); err != nil {
				return nil, fmt.Errorf("replnet: decoding tail request: %w", err)
			}
			if err := table.Fence(req.OwnerEpoch, req.Shard, self); err != nil {
				return nil, err
			}
			tr, err := e.JournalTail(req.Shard, req.Epoch, req.Since)
			if err != nil {
				return nil, err
			}
			return marshalTailBounded(req.Shard, tr)
		case kindSnapPage:
			var req snapPageRequest
			if err := json.Unmarshal(data, &req); err != nil {
				return nil, fmt.Errorf("replnet: decoding snapshot page request: %w", err)
			}
			if err := table.Fence(req.OwnerEpoch, req.Shard, self); err != nil {
				return nil, err
			}
			pg, err := e.SnapshotPage(req.Shard, req.Epoch, req.Seq, req.Token, pageBudget())
			if err != nil {
				return nil, err
			}
			return json.Marshal(pg)
		case kindSetProfiles:
			var req setProfilesRequest
			if err := json.Unmarshal(data, &req); err != nil {
				return nil, fmt.Errorf("replnet: decoding profile write: %w", err)
			}
			return nil, writer(req.OwnerEpoch).SetEncodedProfiles(req.Profiles)
		case kindObserve:
			var req observeRequest
			if err := json.Unmarshal(data, &req); err != nil {
				return nil, fmt.Errorf("replnet: decoding observe write: %w", err)
			}
			evs := make([]profile.Evidence, len(req.Evidence))
			for i, ev := range req.Evidence {
				evs[i] = profile.Evidence(ev)
			}
			return nil, writer(req.OwnerEpoch).Observe(req.UserID, evs, req.Purchases)
		case kindOwnerMap:
			// The consistency probe is deliberately unfenced: it is how
			// peers discover they disagree in the first place.
			m := table.Current()
			return json.Marshal(OwnerMapInfo{Hash: m.Hash(), Epoch: m.Epoch, Shards: e.Shards(), Servers: servers, Self: self})
		default:
			return nil, fmt.Errorf("replnet: unknown journal kind %q", kind)
		}
	}
}

// marshalTailBounded encodes shard's tail reply, bounding it to
// maxTailBytes. Served records are trimmed to a prefix — the follower's
// cursor advances and the next pull continues. A single journal record over
// the budget cannot shrink, and one poison record must never wedge the
// shard's replication forever: the reply becomes the marker the engine
// itself gives a cursor it cannot serve, pinned at the owner's feed head,
// so the follower pages the shard and lands past the oversized record.
func marshalTailBounded(shard int, tr recommend.TailResult) ([]byte, error) {
	out, err := json.Marshal(tr)
	for err == nil && len(out) > maxTailBytes && !tr.Paged {
		if len(tr.Records) <= 1 {
			tr = recommend.TailResult{Shards: tr.Shards, Epoch: tr.Epoch, Seq: tr.Head, Head: tr.Head, Paged: true}
		} else {
			tr.Records = tr.Records[:len(tr.Records)/2]
			tr.Seq = tr.Records[len(tr.Records)-1].Seq
		}
		out, err = json.Marshal(tr)
	}
	if err != nil {
		return nil, fmt.Errorf("replnet: encoding shard %d tail result: %w", shard, err)
	}
	return out, nil
}

// Peer tails a remote server's journal over atp. It implements
// recommend.Peer.
type Peer struct {
	client *atp.Client
	dest   string
	cfg    wireCfg
}

// NewPeer returns a Peer tailing the ATP server at dest through client. It
// stamps every request with its table's current map epoch (see
// WithOwnership) for the receiving handler's fence.
func NewPeer(client *atp.Client, dest string, opts ...Option) *Peer {
	p := &Peer{client: client, dest: dest}
	for _, opt := range opts {
		opt(&p.cfg)
	}
	return p
}

// stamp is the sender's current ownership epoch: its table's, else the
// static map's epoch 1.
func (c wireCfg) stamp() uint64 {
	if c.owners == nil {
		return 1
	}
	return c.owners.Epoch()
}

// call sends req as a journal frame of kind to dest, decoding any reply.
func call(ctx context.Context, client *atp.Client, dest, kind string, req, reply any) error {
	data, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("replnet: encoding %s request: %w", kind, err)
	}
	out, err := client.Journal(ctx, dest, kind, data)
	if err != nil || reply == nil {
		return err
	}
	if err := json.Unmarshal(out, reply); err != nil {
		return fmt.Errorf("replnet: decoding %s reply from %s: %w", kind, dest, err)
	}
	return nil
}

// JournalTail implements recommend.Peer.
func (p *Peer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (tr recommend.TailResult, err error) {
	err = call(ctx, p.client, p.dest, kindTail, tailRequest{Shard: shard, Epoch: epoch, Since: since, OwnerEpoch: p.cfg.stamp()}, &tr)
	return tr, err
}

// SnapshotPage implements recommend.Peer: one bounded page of a
// shard-snapshot transfer (requested after a tail reply came back Paged).
func (p *Peer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (pg recommend.SnapshotPage, err error) {
	err = call(ctx, p.client, p.dest, kindSnapPage, snapPageRequest{Shard: shard, Epoch: epoch, Seq: seq, Token: token, OwnerEpoch: p.cfg.stamp()}, &pg)
	return pg, err
}

// OwnerMap fetches the remote server's ownership map fingerprint — the
// probe behind platformd's startup map-consistency check.
func (p *Peer) OwnerMap(ctx context.Context) (info OwnerMapInfo, err error) {
	err = call(ctx, p.client, p.dest, kindOwnerMap, struct{}{}, &info)
	return info, err
}

var _ recommend.Peer = (*Peer)(nil)

// Writer forwards community writes to the shard owner's server over atp.
// It implements recommend.Writer, so it slots into a recommend.Router as
// the write surface of a remote peer.
type Writer struct {
	base    context.Context
	client  *atp.Client
	dest    string
	timeout time.Duration
	cfg     wireCfg
}

// NewWriter returns a Writer forwarding to the ATP server at dest. base is
// the forwarding server's lifecycle context: cancelling it (shutdown)
// aborts in-flight forwards immediately instead of letting them ride out
// the full send timeout. nil means context.Background (no lifecycle).
// Every forwarded frame is stamped with its table's current map epoch (see
// WithOwnership) for the receiving handler's fence.
func NewWriter(base context.Context, client *atp.Client, dest string, opts ...Option) *Writer {
	if base == nil {
		base = context.Background()
	}
	w := &Writer{base: base, client: client, dest: dest, timeout: 30 * time.Second}
	for _, opt := range opts {
		opt(&w.cfg)
	}
	return w
}

func (w *Writer) send(kind string, v any) error {
	ctx, cancel := context.WithTimeout(w.base, w.timeout)
	defer cancel()
	return call(ctx, w.client, w.dest, kind, v, nil)
}

// SetProfile implements recommend.Writer.
func (w *Writer) SetProfile(p *profile.Profile) error {
	return w.SetProfiles([]*profile.Profile{p})
}

// SetProfiles implements recommend.Writer. Large batches are forwarded as
// several in-order frames so no single frame outgrows the transport.
func (w *Writer) SetProfiles(ps []*profile.Profile) error {
	var encoded [][]byte
	size := 0
	flush := func() error {
		if len(encoded) == 0 {
			return nil
		}
		err := w.send(kindSetProfiles, setProfilesRequest{Profiles: encoded, OwnerEpoch: w.cfg.stamp()})
		encoded, size = nil, 0
		return err
	}
	for _, p := range ps {
		data, err := p.Marshal()
		if err != nil {
			return fmt.Errorf("replnet: encoding profile %s: %w", p.UserID, err)
		}
		if len(encoded) > 0 && size+len(data) > maxForwardBytes {
			if err := flush(); err != nil {
				return err
			}
		}
		encoded = append(encoded, data)
		size += len(data)
	}
	return flush()
}

// Observe implements recommend.Writer: the owner applies the evidence to
// the profile it stores and records the sales, in one write.
func (w *Writer) Observe(userID string, evs []profile.Evidence, sales []recommend.PurchasePair) error {
	req := observeRequest{UserID: userID, Evidence: make([]wireEvidence, len(evs)), Purchases: sales, OwnerEpoch: w.cfg.stamp()}
	for i, ev := range evs {
		req.Evidence[i] = wireEvidence(ev)
	}
	return w.send(kindObserve, req)
}

// RecordPurchase implements recommend.Writer: an observe frame with no
// evidence and the one purchase, whose zero time travels as an absent
// at_epoch_ms.
func (w *Writer) RecordPurchase(userID, productID string) error {
	return w.Observe(userID, nil, []recommend.PurchasePair{{UserID: userID, ProductID: productID}})
}

var _ recommend.Writer = (*Writer)(nil)
