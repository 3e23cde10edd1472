package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"agentrec/internal/atp"
	"agentrec/internal/catalog"
	"agentrec/internal/recommend"
	"agentrec/internal/replnet"
	"agentrec/internal/security"
)

// TestElasticOwnershipOverTCP boots two -coordinator daemons sharing one
// CA address: the first hosts the ownership authority, the second joins as
// a remote lease client. Both lease the static epoch-1 map, the owner-map
// consistency check passes, and epoch-stamped routed writes work in both
// directions.
func TestElasticOwnershipOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("two TCP daemons")
	}
	buyer1, buyer2 := freeAddr(t), freeAddr(t)
	peers := []string{buyer1, buyer2}
	coordAddr := freeAddr(t)
	const shards = 4
	mk := func(self int, buyerAddr string) daemonConfig {
		return daemonConfig{
			markets:       1,
			coordAddr:     coordAddr,
			marketIP:      "127.0.0.1",
			basePort:      portOf(t, freeAddr(t)),
			buyerAddr:     buyerAddr,
			httpAddr:      freeAddr(t),
			key:           "test-platform-key",
			shards:        shards,
			repl:          &replConfig{servers: peers, self: self, interval: 100 * time.Millisecond},
			elastic:       true,
			leaseInterval: 100 * time.Millisecond,
		}
	}
	cfg1, cfg2 := mk(0, buyer1), mk(1, buyer2)

	ctx, cancel := context.WithCancel(context.Background())
	err1 := startDaemon(ctx, cfg1)
	waitHTTP(t, "http://"+cfg1.httpAddr+"/metrics/snapshot")
	err2 := startDaemon(ctx, cfg2)
	waitHTTP(t, "http://"+cfg2.httpAddr+"/metrics/snapshot")
	defer func() {
		cancel()
		for _, ch := range []chan error{err1, err2} {
			select {
			case err := <-ch:
				if err != nil {
					t.Errorf("daemon returned %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Error("daemon did not stop")
			}
		}
	}()

	// Both daemons answer the owner-map probe with the same static epoch-1
	// fingerprint — the same check their startup consistency task ran.
	client := atp.NewClient(security.NewSigner([]byte(cfg1.key)))
	want := recommend.StaticOwnership(shards, len(peers))
	for i, addr := range peers {
		info, err := replnet.NewPeer(client, addr).OwnerMap(t.Context())
		if err != nil {
			t.Fatalf("owner-map probe of daemon %d: %v", i, err)
		}
		if info.Hash != want.Hash() || info.Epoch != 1 || info.Self != i {
			t.Fatalf("daemon %d owner map = %+v, want static epoch-1 hash %s self %d", i, info, want.Hash(), i)
		}
	}

	// Epoch-stamped routed writes work in both directions: each daemon
	// registers a consumer whose shard the OTHER daemon owns, so the write
	// crosses the fenced wire.
	probe := recommend.NewEngine(catalog.New(), recommend.WithShards(shards))
	for self, base := range []string{"http://" + cfg1.httpAddr, "http://" + cfg2.httpAddr} {
		user := userOwnedBy(t, probe, 1-self, len(peers), fmt.Sprintf("elastic-%d", self))
		postJSON(t, base+"/users", map[string]string{"user_id": user})
		postJSON(t, base+"/login", map[string]string{"user_id": user})
		postJSON(t, base+"/tasks", map[string]any{
			"user_id": user,
			"spec":    map[string]any{"kind": "buy", "product_id": "lap-ultra"},
		})
		resp, err := http.Get(base + "/recommendations?user=" + user + "&category=laptop")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommendations for %s = %d", user, resp.StatusCode)
		}
	}
}

// TestElasticPeersRenewAtTheGrantedCadence: the daemon hosting the CA
// sets the lease cadence for everyone. Its -lease-interval of 50ms grants
// 150ms leases; a peer started with -lease-interval 400ms must still renew
// every third of that grant, so its lease never lapses and the map never
// leaves epoch 1 — no failover of its shards, no hand-back when it
// rejoins.
func TestElasticPeersRenewAtTheGrantedCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("two TCP daemons")
	}
	buyer1, buyer2 := freeAddr(t), freeAddr(t)
	peers := []string{buyer1, buyer2}
	coordAddr := freeAddr(t)
	mk := func(self int, buyerAddr string, lease time.Duration) daemonConfig {
		return daemonConfig{
			markets:       1,
			coordAddr:     coordAddr,
			marketIP:      "127.0.0.1",
			basePort:      portOf(t, freeAddr(t)),
			buyerAddr:     buyerAddr,
			httpAddr:      freeAddr(t),
			key:           "test-platform-key",
			shards:        4,
			repl:          &replConfig{servers: peers, self: self, interval: 100 * time.Millisecond},
			elastic:       true,
			leaseInterval: lease,
		}
	}
	cfg1, cfg2 := mk(0, buyer1, 50*time.Millisecond), mk(1, buyer2, 400*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	err1 := startDaemon(ctx, cfg1)
	waitHTTP(t, "http://"+cfg1.httpAddr+"/metrics/snapshot")
	err2 := startDaemon(ctx, cfg2)
	waitHTTP(t, "http://"+cfg2.httpAddr+"/metrics/snapshot")
	defer func() {
		cancel()
		for _, ch := range []chan error{err1, err2} {
			select {
			case err := <-ch:
				if err != nil {
					t.Errorf("daemon returned %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Error("daemon did not stop")
			}
		}
	}()

	client := atp.NewClient(security.NewSigner([]byte(cfg1.key)))
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(100 * time.Millisecond) {
		for i, addr := range peers {
			info, err := replnet.NewPeer(client, addr).OwnerMap(t.Context())
			if err != nil {
				t.Fatalf("owner-map probe of daemon %d: %v", i, err)
			}
			if info.Epoch != 1 {
				t.Fatalf("daemon %d holds map epoch %d: the 400ms daemon's lease lapsed under the CA's 150ms TTL", i, info.Epoch)
			}
		}
	}
}

// TestOwnerMapMismatchFailsStartup: two statically replicated daemons that
// disagree on -engine-shards must fail their startup consistency check
// with a descriptive error instead of silently diverging replicas.
func TestOwnerMapMismatchFailsStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("two TCP daemons")
	}
	restore := ownerMapProbeWindow
	ownerMapProbeWindow = 15 * time.Second
	defer func() { ownerMapProbeWindow = restore }()

	buyer1, buyer2 := freeAddr(t), freeAddr(t)
	peers := []string{buyer1, buyer2}
	mk := func(self int, buyerAddr string, shards int) daemonConfig {
		return daemonConfig{
			markets:   1,
			coordAddr: freeAddr(t),
			marketIP:  "127.0.0.1",
			basePort:  portOf(t, freeAddr(t)),
			buyerAddr: buyerAddr,
			httpAddr:  freeAddr(t),
			key:       "test-platform-key",
			shards:    shards,
			repl:      &replConfig{servers: peers, self: self, interval: 100 * time.Millisecond},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err1 := startDaemon(ctx, mk(0, buyer1, 4))
	err2 := startDaemon(ctx, mk(1, buyer2, 8))

	// At least one side must detect the disagreement and exit with the
	// descriptive error; then release the other.
	var remaining chan error
	select {
	case err := <-err1:
		requireMismatch(t, err)
		remaining = err2
	case err := <-err2:
		requireMismatch(t, err)
		remaining = err1
	case <-time.After(30 * time.Second):
		t.Fatal("neither daemon failed its owner-map consistency check")
	}
	cancel()
	select {
	case err := <-remaining:
		if err != nil {
			requireMismatch(t, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not stop after cancel")
	}
}

func requireMismatch(t *testing.T, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "owner-map mismatch") {
		t.Fatalf("daemon error = %v, want an owner-map mismatch", err)
	}
}
