// Fixture: a minimal shadow of internal/recommend's lock hierarchy
// exercising lockorder. shard is classified by type name, matching the real
// engine.
package recommend

import (
	"sync"

	"agentrec/internal/kvstore"
)

type shard struct {
	mu    sync.RWMutex
	build sync.Mutex
}

// goodOneAtATime is every cross-shard read (top sellers, Trending): each
// shard's lock is released before the next one is taken.
func goodOneAtATime(shards []*shard) {
	for _, sh := range shards {
		sh.mu.RLock()
		sh.mu.RUnlock()
	}
}

// goodBuildThenShard is the view builder: a shard's build mutex is not its
// community lock, and is taken before it.
func goodBuildThenShard(sh *shard) {
	sh.build.Lock()
	defer sh.build.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
}

// fsyncUnderBuild: any held mutex counts against the fsync rule.
func fsyncUnderBuild(sh *shard, st *kvstore.Store) error {
	sh.build.Lock()
	defer sh.build.Unlock()
	return st.Sync() // want `fsync barrier with unbounded latency`
}

// nestedShards is the deadlock shape: two shard locks held at once.
func nestedShards(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `shard lock b acquired while shard lock a is held`
	b.mu.Unlock()
}

// unlockInBranchThenRelock: the early-unlock branch returns, so the
// fall-through still holds the lock — but only one shard lock at a time.
func unlockInBranchThenRelock(a *shard, stop bool) {
	a.mu.Lock()
	if stop {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
}

// fsyncUnderLock holds a shard lock across a Store.Sync barrier.
func fsyncUnderLock(sh *shard, st *kvstore.Store) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return st.Sync() // want `fsync barrier with unbounded latency`
}

// fsyncAfterUnlock releases before the barrier: compliant.
func fsyncAfterUnlock(sh *shard, st *kvstore.Store) error {
	sh.mu.Lock()
	sh.mu.Unlock()
	return st.Sync()
}

// goroutineStartsClean: a spawned goroutine inherits no locks, so its own
// single shard acquisition is fine even while the parent holds another.
func goroutineStartsClean(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	go func() {
		b.mu.Lock()
		b.mu.Unlock()
	}()
}
