package site

import (
	"container/heap"
	"sync"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
)

// Bounded query-driven caching (DESIGN.md §11). When Config.CacheBudgetBytes
// is set on a caching site, the site tracks per-unit residency metadata —
// when each cached local-information unit was fetched and last used by a
// query — and evicts the coldest units through the copy-on-write
// fragment.COW.EvictLocalInfo transaction whenever the accounted cache
// bytes (fragment.Store.CachedBytes) exceed the budget. Eviction runs in
// the same COW transaction as the cache merge that caused the overflow, so
// every published version already respects the budget (up to the units the
// merge itself is installing); a low-frequency background pressure
// loop mops up growth from paths that bypass the merge hook (ownership
// migrations downgrading owned data to cached copies).
//
// Eviction always uses EvictLocalInfo — complete -> id-complete — which
// preserves the cache conditions C1/C2 and the invariants I1/I2 by
// construction: owned units are never candidates (EvictLocalInfo refuses
// them), and a downgraded node keeps its ID and its IDable child stubs, so
// ancestors of surviving data always retain their local ID information.

// pressureInterval is how often the background loop re-checks the budget.
const pressureInterval = 250 * time.Millisecond

// unitMeta is the residency record of one cached local-information unit.
type unitMeta struct {
	key        string  // ID-path key (xmldb.IDPath.Key)
	lastAccess float64 // site clock seconds; query touched the unit
	fetchedAt  float64 // site clock seconds; unit (re-)entered the cache
	idx        int     // position in unitHeap; -1 while out of the heap
	held       bool    // being installed by the merge in progress; not evictable
}

// unitHeap is a min-heap of tracked units, coldest on top: by last access,
// then by fetch time, then by key for determinism. Units know their
// position, so re-stamping one is a heap.Fix.
type unitHeap []*unitMeta

func (h unitHeap) Len() int { return len(h) }

func (h unitHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.lastAccess != b.lastAccess {
		return a.lastAccess < b.lastAccess
	}
	if a.fetchedAt != b.fetchedAt {
		return a.fetchedAt < b.fetchedAt
	}
	return a.key < b.key
}

func (h unitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *unitHeap) Push(x any) {
	m := x.(*unitMeta)
	m.idx = len(*h)
	*h = append(*h, m)
}

func (h *unitHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	m.idx = -1
	return m
}

// cacheManager holds the eviction policy's state: per-unit recency metadata
// keyed by ID-path key and ordered coldest-first in a heap, plus the units
// held by the merge transaction in progress. It is shared by query
// goroutines (touch) and writers holding wmu (fetch stamps, eviction), so it
// has its own small mutex; none of the critical sections block on I/O. A
// touch or fetch stamp costs one O(log units) heap fix per unit named; an
// eviction pass pops only what it evicts (plus the held units it meets).
type cacheManager struct {
	mu    sync.Mutex
	units map[string]*unitMeta
	heap  unitHeap
	// held lists the units marked unevictable by the merge transaction in
	// progress (noteFetched with hold), until its release. Merge
	// transactions run under wmu, one at a time.
	held []*unitMeta
	// keyBuf is the scratch buffer tree walks build unit keys in.
	keyBuf []byte
}

func newCacheManager() *cacheManager {
	return &cacheManager{units: map[string]*unitMeta{}}
}

// walkLocked takes the mutex and calls fn with the ID-path key of every
// complete unit in the given trees. The key is only valid during the call.
func (c *cacheManager) walkLocked(roots []*xmldb.Node, fn func(key []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, root := range roots {
		c.keyBuf = walkCompleteUnits(root, root.ID(), c.keyBuf[:0], fn)
	}
}

// walkCompleteUnits calls fn with the ID-path key of every complete unit in
// the tree under n (whose id the caller has already looked up). The key is
// carried down the descent in buf — each level appends its own step and
// truncates it on the way out — and is byte-identical to
// xmldb.IDPathOf(node).Key(). Only IDable children are descended into:
// nodes inside a local-information unit carry no status and have no ID
// path. It returns buf truncated to its length on entry, grown or not.
func walkCompleteUnits(n *xmldb.Node, id string, buf []byte, fn func(key []byte)) []byte {
	mark := len(buf)
	buf = xmldb.Step{Name: n.Name, ID: id}.AppendKey(buf)
	if fragment.StatusOf(n) == fragment.StatusComplete {
		fn(buf)
	}
	for _, c := range n.Children {
		if cid := c.ID(); cid != "" {
			buf = walkCompleteUnits(c, cid, buf, fn)
		}
	}
	return buf[:mark]
}

// stampLocked records a unit's stamps, tracking it if it is new, and
// restores the heap order around it.
func (c *cacheManager) stampLocked(key []byte, lastAccess, fetchedAt float64) *unitMeta {
	m := c.units[string(key)]
	if m == nil {
		m = &unitMeta{key: string(key), lastAccess: lastAccess, fetchedAt: fetchedAt}
		c.units[m.key] = m
		heap.Push(&c.heap, m)
		return m
	}
	m.lastAccess, m.fetchedAt = lastAccess, fetchedAt
	c.fixLocked(m)
	return m
}

// fixLocked restores the heap order after m's stamps changed. A unit an
// eviction pass has set aside is out of the heap and is re-ordered when the
// pass pushes it back.
func (c *cacheManager) fixLocked(m *unitMeta) {
	if m.idx >= 0 {
		heap.Fix(&c.heap, m.idx)
	}
}

// noteFetched records the units a cache merge just (re-)installed: fresh
// fetch and access stamps, so newly arrived data is the warmest and is
// evicted last. With hold, the units also stay unevictable until release:
// the budget eviction running inside a merge transaction must not cancel
// the fetch it is committing. A status of complete covers only the node's
// own local information, so holding exactly the fetched units — not the
// fetch targets' whole prefixes — keeps the rest of the cache evictable,
// and a published version can exceed the budget only by the one answer
// being installed.
func (c *cacheManager) noteFetched(frags []*xmldb.Node, now float64, hold bool) {
	c.walkLocked(frags, func(key []byte) {
		m := c.stampLocked(key, now, now)
		if hold && !m.held {
			m.held = true
			c.held = append(c.held, m)
		}
	})
}

// release makes the units held by the finished merge transaction evictable
// again.
func (c *cacheManager) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.held {
		m.held = false
		c.held[i] = nil
	}
	c.held = c.held[:0]
}

// touchAnswer refreshes the access time of every tracked unit that appears
// in a query's answer fragment. Units the policy does not know about (owned
// data serialized into the answer) are left alone — they are not evictable.
func (c *cacheManager) touchAnswer(root *xmldb.Node, now float64) {
	c.walkLocked([]*xmldb.Node{root}, func(key []byte) {
		if m := c.units[string(key)]; m != nil && m.lastAccess != now {
			m.lastAccess = now
			c.fixLocked(m)
		}
	})
}

// seedFrom adopts cached units present in the store but missing from the
// metadata (complete copies left behind by an ownership migration, or units
// cached before a restart of the policy) as maximally cold entries. It
// reports whether anything was added.
func (c *cacheManager) seedFrom(root *xmldb.Node) bool {
	added := false
	c.walkLocked([]*xmldb.Node{root}, func(key []byte) {
		if c.units[string(key)] == nil {
			c.stampLocked(key, 0, 0)
			added = true
		}
	})
	return added
}

// forget drops a unit's metadata (its eviction was replayed from the log).
func (c *cacheManager) forget(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.units[key]; m != nil {
		delete(c.units, key)
		if m.idx >= 0 {
			heap.Remove(&c.heap, m.idx)
		}
	}
}

// popColdest removes the coldest evictable unit from the policy and returns
// its key; false when every tracked unit is held or none is left. Held
// units met on the way leave the heap but stay tracked: they are appended
// to aside, and the caller hands them back with pushBack when its eviction
// pass ends. Passes run under the site's writer mutex, one at a time.
func (c *cacheManager) popColdest(aside *[]*unitMeta) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.heap.Len() > 0 {
		m := heap.Pop(&c.heap).(*unitMeta)
		if m.held {
			*aside = append(*aside, m)
			continue
		}
		delete(c.units, m.key)
		return m.key, true
	}
	return "", false
}

// pushBack returns the units an eviction pass set aside to the heap.
func (c *cacheManager) pushBack(aside []*unitMeta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range aside {
		heap.Push(&c.heap, m)
	}
}

// evictToBudgetLocked is the eviction policy: it trims the in-progress
// version down to the byte budget by evicting cold units, coldest first,
// each through evictUnit. It runs inside a commit, as the applier of a new
// evict command (commit.go), so merge and eviction land atomically in one
// version. Held units (the answer the transaction is installing) are
// skipped; the published total can therefore exceed the budget only by
// data a merge is actively installing, and by at most one unit when a
// single unit alone is larger than the whole budget. Returns the keys of
// the evicted units, which the evict command logs.
func (s *Site) evictToBudgetLocked(w *fragment.COW) []string {
	budget := s.cfg.CacheBudgetBytes
	if budget <= 0 || s.cache == nil {
		return nil
	}
	var evicted []string
	var aside []*unitMeta
	seeded := false
	for int64(w.CachedBytes()) > budget {
		key, ok := s.cache.popColdest(&aside)
		if !ok {
			// Still over budget with nothing left to evict: the version
			// holds cached units the policy never saw through a merge (e.g.
			// complete copies created by delegating ownership away). Adopt
			// them, once, from the version being trimmed — not the published
			// one, which still shows the units this pass just evicted — as
			// cold entries and carry on.
			if seeded || !s.cache.seedFrom(w.Root()) {
				break
			}
			seeded = true
			continue
		}
		// A popped unit is forgotten whether or not it can be evicted:
		// evictUnit refuses owned and already-downgraded nodes, and for those
		// the metadata entry was stale.
		if evictUnit(w, key) != nil {
			continue
		}
		s.Metrics.Evictions.Inc()
		evicted = append(evicted, key)
	}
	s.cache.pushBack(aside)
	return evicted
}

// relieveCachePressure is the background loop body: when the published
// version is over budget — growth from a path without a merge-time eviction
// hook — commit an eviction pass of its own. Only budgeted sites have a policy.
func (s *Site) relieveCachePressure() {
	if s.cache != nil && int64(s.state.Load().store.CachedBytes()) > s.cfg.CacheBudgetBytes {
		_, _ = s.commit(walOp{Op: opEvict})
	}
}

// pressureLoop runs relieveCachePressure until the site stops.
func (s *Site) pressureLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(pressureInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopPressure:
			return
		case <-t.C:
			s.relieveCachePressure()
		}
	}
}

// CacheBytes returns the accounted size of the site's cached (non-owned)
// data in the currently published version.
func (s *Site) CacheBytes() int {
	return s.state.Load().store.CachedBytes()
}
