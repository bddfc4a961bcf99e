package site

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/qeg"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

func checkSiteInvariants(t *testing.T, d *testDeployment, s *Site) {
	t.Helper()
	var owned []xmldb.IDPath
	for _, k := range s.OwnedPaths() {
		p, err := xmldb.ParseIDPath(k)
		if err != nil {
			t.Fatal(err)
		}
		owned = append(owned, p)
	}
	if errs := fragment.CheckInvariants(s.StoreSnapshot(), d.db.Doc, owned, false); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestSiteConcurrentBudgetedEviction is the bounded-cache property test:
// queries, sensor updates and budget-driven eviction race freely (run with
// -race), and afterwards the store must still satisfy I1/I2 and C1/C2, the
// accounted cache bytes must be back under the budget once no fetch is in
// flight, and answers must still be correct.
func TestSiteConcurrentBudgetedEviction(t *testing.T) {
	sim := transport.SimConfig{Latency: time.Millisecond}
	const budget = 512 // well below one cached block subtree: constant pressure
	d := deployCfg(t, true, sim, func(c *Config) { c.CacheBudgetBytes = budget })
	cityName := "city-" + workload.CityName(0)
	city := d.sites[cityName]
	const iters = 30

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := d.db.BlockQuery(0, (w+i)%2, i%3)
				msg := &Message{Kind: KindQuery, Query: q}
				respB, err := d.net.Call(cityName, msg.Encode())
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if resp, derr := DecodeMessage(respB); derr != nil || resp.AsError() != nil {
					t.Errorf("worker %d: %v %v", w, derr, resp.AsError())
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				target := d.db.SpacePaths[(w*iters+i)%len(d.db.SpacePaths)]
				msg := &Message{Kind: KindUpdate, Path: target.String(),
					Fields: map[string]string{"available": fmt.Sprintf("v%d", i)}}
				if _, err := d.net.Call(d.assign.OwnerOf(target), msg.Encode()); err != nil {
					t.Errorf("update %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if city.Metrics.Evictions.Value() == 0 {
		t.Fatal("budget pressure produced no evictions")
	}
	// With no fetch in flight nothing is pinned, so one pressure pass must
	// bring the published version down to the budget.
	city.relieveCachePressure()
	if got := city.CacheBytes(); int64(got) > budget {
		t.Fatalf("cache at %d bytes after pressure relief, budget %d", got, budget)
	}
	checkSiteInvariants(t, d, city)

	// Queries still answer correctly after the churn (the updates changed
	// field values, so check the structural answer, not exact bytes).
	q := d.db.BlockPath(0, 0, 0).String()
	frag := d.query(t, cityName, q)
	ans, err := qeg.ExtractAnswer(frag, q, d.clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Name != "block" {
		t.Fatalf("post-stress answer: %v", ans)
	}
}

// TestSiteEvictionSkipsPinnedUnits installs an answer the way commitMerge
// does — its units held by the stamping walk — but leaves the hold in place,
// as if the merge never completed, and drives the cache far over a 1-byte
// budget: every cold unit must go, the held units must survive both the
// merge-time eviction and the background pressure pass, and release must
// make them reclaimable again.
func TestSiteEvictionSkipsPinnedUnits(t *testing.T) {
	d := deployCfg(t, true, transport.SimConfig{}, func(c *Config) { c.CacheBudgetBytes = 1 })
	cityName := "city-" + workload.CityName(0)
	city := d.sites[cityName]
	block0, block1 := d.db.BlockPath(0, 0, 0), d.db.BlockPath(0, 0, 1)

	d.query(t, cityName, d.db.BlockQuery(0, 0, 0))

	// block1's answer straight from its owner, merged under wmu with its
	// units held and never released.
	nbName := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(0)
	frags := []*xmldb.Node{d.query(t, nbName, d.db.BlockQuery(0, 0, 1))}
	func() {
		city.wmu.Lock()
		defer city.wmu.Unlock()
		st := city.state.Load()
		w := st.store.Begin()
		if err := w.MergeFragment(frags[0]); err != nil {
			t.Fatal(err)
		}
		city.cache.noteFetched(frags, d.clock(), true)
		city.evictToBudgetLocked(w)
		city.publishLocked(&siteState{store: w.Commit(), owned: st.owned, migrated: st.migrated})
	}()

	// The merge that installed block1 ran eviction: the cold block0 copy is
	// gone, the held block1 unit is intact.
	snap := city.StoreSnapshot()
	if n := xmldb.FindByIDPath(snap.Root, block0); n != nil && fragment.StatusOf(n) == fragment.StatusComplete {
		t.Fatal("cold unit survived eviction under a 1-byte budget")
	}
	if n := xmldb.FindByIDPath(snap.Root, block1); n == nil || fragment.StatusOf(n) != fragment.StatusComplete {
		t.Fatal("held unit was evicted during merge")
	}

	// A background pressure pass must not touch it either.
	city.relieveCachePressure()
	if n := xmldb.FindByIDPath(city.StoreSnapshot().Root, block1); n == nil || fragment.StatusOf(n) != fragment.StatusComplete {
		t.Fatal("held unit was evicted by the pressure loop")
	}
	if int64(city.CacheBytes()) <= city.cfg.CacheBudgetBytes {
		t.Fatal("test premise broken: held units should keep the cache over budget")
	}

	// Release hands it to the policy.
	city.cache.release()
	city.relieveCachePressure()
	if got := city.CacheBytes(); int64(got) > city.cfg.CacheBudgetBytes {
		t.Fatalf("cache at %d bytes after release and pressure relief, budget %d",
			got, city.cfg.CacheBudgetBytes)
	}
	if n := xmldb.FindByIDPath(city.StoreSnapshot().Root, block1); n != nil && fragment.StatusOf(n) == fragment.StatusComplete {
		t.Fatal("released cold unit not reclaimed")
	}
	checkSiteInvariants(t, d, city)
}

// TestEvictionSeedsFromTheVersionBeingTrimmed is the regression test for the
// second eviction pass: the complete copies an ownership handoff leaves
// behind (the policy never saw them through a merge) must be adopted from
// the transaction being trimmed. Here the handoff's downgrade and an
// over-budget merge share one transaction, so the published root still shows
// the copies as owned; seeding from it left the new version over budget.
func TestEvictionSeedsFromTheVersionBeingTrimmed(t *testing.T) {
	const budget = 1
	d := deployCfg(t, true, transport.SimConfig{}, func(c *Config) { c.CacheBudgetBytes = budget })
	nbName := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(0)
	nb := d.sites[nbName]

	// An answer from another neighborhood's owner: the merge to install.
	otherName := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(1)
	frag := d.query(t, otherName, d.db.BlockQuery(0, 1, 0))
	frags := []*xmldb.Node{frag}

	// The units a handoff of block (0,0,0) would orphan: the block and its
	// spaces, all owned by nb.
	block := d.db.BlockPath(0, 0, 0)
	orphans := []xmldb.IDPath{block}
	for _, sp := range d.db.SpacePaths {
		if block.IsPrefixOf(sp) {
			orphans = append(orphans, sp)
		}
	}

	// One transaction, as a writer would run it under wmu.
	var answerBytes int
	var evicted []string
	func() {
		nb.wmu.Lock()
		defer nb.wmu.Unlock()
		st := nb.state.Load()
		// What the answer alone adds to the cache: a version may exceed the
		// budget by the answer it installs, and by nothing else.
		dry := st.store.Begin()
		if err := dry.MergeFragment(frag); err != nil {
			t.Fatal(err)
		}
		answerBytes = dry.CachedBytes() - st.store.CachedBytes()

		w := st.store.Begin()
		for _, p := range orphans {
			if err := w.SetStatusAt(p, fragment.StatusComplete); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.MergeFragment(frag); err != nil {
			t.Fatal(err)
		}
		nb.cache.noteFetched(frags, d.clock(), true)
		evicted = nb.evictToBudgetLocked(w)
		nb.cache.release()
		nb.publishLocked(&siteState{store: w.Commit(), owned: st.owned, migrated: st.migrated})
	}()

	if got := nb.CacheBytes(); got > budget+answerBytes {
		t.Fatalf("published version holds %d cached bytes, want <= budget %d + installed answer %d (evicted %v)",
			got, budget, answerBytes, evicted)
	}
	if len(evicted) != len(orphans) {
		t.Fatalf("evicted %v, want exactly the %d orphaned units", evicted, len(orphans))
	}
	snap := nb.StoreSnapshot()
	for _, p := range orphans {
		if n := snap.NodeAt(p); n == nil || fragment.StatusOf(n) != fragment.StatusIDComplete {
			t.Fatalf("orphaned copy %s not evicted", p)
		}
	}
	// Everything still tracked is resident: the seed adopted nothing the pass
	// had already evicted.
	for key := range nb.cache.snapshot() {
		p, err := xmldb.ParseIDPath(key)
		if err != nil {
			t.Fatal(err)
		}
		if n := snap.NodeAt(p); n == nil || fragment.StatusOf(n) != fragment.StatusComplete {
			t.Fatalf("policy tracks %s, which is not a cached unit of the published version", key)
		}
	}
}

// oddIDs need quoting or escaping in an ID-path key.
var oddIDs = []string{`a"b`, `back\slash`, "new\nline", "é/ü]", "[@id='x']", "\x00", "plain"}

// TestWalkCompleteUnitsKeysMatchIDPathKey checks the keys carried down the
// descent byte for byte against IDPathOf + Key, the per-node parent walk
// they replace, on ids that need quoting and under a root with no id.
func TestWalkCompleteUnitsKeysMatchIDPathKey(t *testing.T) {
	for _, rootID := range []string{"", "NE", `r"oot`} {
		root := xmldb.NewElem("usRegion", rootID)
		fragment.SetStatus(root, fragment.StatusIDComplete)
		for i, id := range oddIDs {
			mid := root.AddChild(xmldb.NewElem("state", id))
			fragment.SetStatus(mid, []fragment.Status{fragment.StatusComplete, fragment.StatusIDComplete}[i%2])
			// A non-IDable child holding a status-bearing node: not a unit,
			// and not descended into.
			inner := mid.AddChild(xmldb.NewNode("note")).AddChild(xmldb.NewElem("city", "hidden"))
			fragment.SetStatus(inner, fragment.StatusComplete)
			for _, id2 := range oddIDs {
				leaf := mid.AddChild(xmldb.NewElem("city", id2+id))
				fragment.SetStatus(leaf, fragment.StatusComplete)
			}
		}

		var want []string
		root.Walk(func(n *xmldb.Node) bool {
			if fragment.StatusOf(n) == fragment.StatusComplete {
				if p, ok := xmldb.IDPathOf(n); ok {
					want = append(want, p.Key())
				}
			}
			return true
		})
		var got []string
		buf := walkCompleteUnits(root, root.ID(), nil, func(key []byte) { got = append(got, string(key)) })
		if len(buf) != 0 {
			t.Fatalf("walk left %d bytes in the key buffer", len(buf))
		}
		if len(want) != (len(oddIDs)+1)/2+len(oddIDs)*len(oddIDs) {
			t.Fatalf("test premise broken: oracle found %d units", len(want))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("root id %q: incremental keys differ from IDPathOf().Key():\n got %q\nwant %q", rootID, got, want)
		}
	}
}

// sortedCandidates is the eviction order the heap replaced, kept as the
// oracle: every tracked unit not held, fully sorted by last access, then
// fetch time, then key.
func sortedCandidates(c *cacheManager) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.units))
	for k, m := range c.units {
		if !m.held {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := c.units[keys[i]], c.units[keys[j]]
		if a.lastAccess != b.lastAccess {
			return a.lastAccess < b.lastAccess
		}
		if a.fetchedAt != b.fetchedAt {
			return a.fetchedAt < b.fetchedAt
		}
		return keys[i] < keys[j]
	})
	return keys
}

// drainOrder runs a whole eviction pass — pop until nothing evictable is
// left, push the held units back — and then reinstates what it popped, so
// the policy is left as it was found, holds included.
func drainOrder(c *cacheManager) []string {
	before := c.snapshot()
	var order []string
	var aside []*unitMeta
	for {
		key, ok := c.popColdest(&aside)
		if !ok {
			break
		}
		order = append(order, key)
	}
	c.pushBack(aside)
	c.restore(before)
	return order
}

// checkHeap verifies the structural invariants the policy relies on: every
// tracked unit sits in the heap at the index it records.
func checkHeap(t *testing.T, c *cacheManager) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) != len(c.units) {
		t.Fatalf("heap holds %d units, map %d", len(c.heap), len(c.units))
	}
	for i, m := range c.heap {
		if m.idx != i || c.units[m.key] != m {
			t.Fatalf("heap[%d] = %s records idx %d (tracked: %v)", i, m.key, m.idx, c.units[m.key] == m)
		}
	}
}

// TestCacheHeapMatchesSortOracle drives the policy through a seeded random
// sequence of fetch / touch / pin (a fetch that holds its units) / unpin
// (release) / forget / restore and checks after
// every step that an eviction pass pops units in exactly the order the old
// full sort produced.
func TestCacheHeapMatchesSortOracle(t *testing.T) {
	// The unit universe: parents and their children, with odd ids mixed in.
	type unit struct{ parent, child string }
	var universe []unit
	for i := 0; i < 8; i++ {
		parent := fmt.Sprintf("p%d%s", i, oddIDs[i%len(oddIDs)])
		universe = append(universe, unit{parent, ""})
		for j := 0; j < 5; j++ {
			universe = append(universe, unit{parent, fmt.Sprintf("c%d", j)})
		}
	}
	keyOf := func(u unit) string {
		p := xmldb.IDPath{{Name: "usRegion", ID: "NE"}, {Name: "state", ID: u.parent}}
		if u.child != "" {
			p = p.Child("city", u.child)
		}
		return p.Key()
	}
	// tree builds a fragment in which exactly the chosen units are complete.
	tree := func(rng *rand.Rand, n int) *xmldb.Node {
		root := xmldb.NewElem("usRegion", "NE")
		fragment.SetStatus(root, fragment.StatusIDComplete)
		for _, i := range rng.Perm(len(universe))[:n] {
			u := universe[i]
			parent := root.Child("state", u.parent)
			if parent == nil {
				parent = root.AddChild(xmldb.NewElem("state", u.parent))
				fragment.SetStatus(parent, fragment.StatusIDComplete)
			}
			if u.child == "" {
				fragment.SetStatus(parent, fragment.StatusComplete)
				continue
			}
			fragment.SetStatus(parent.AddChild(xmldb.NewElem("city", u.child)), fragment.StatusComplete)
		}
		return root
	}

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newCacheManager()
		now := 100.0
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				now += float64(rng.Intn(3)) // often a tie with the previous stamp
			}
			switch op := rng.Intn(10); {
			case op < 3:
				c.noteFetched([]*xmldb.Node{tree(rng, 1+rng.Intn(6)), tree(rng, 1+rng.Intn(3))}, now, false)
			case op < 6:
				c.touchAnswer(tree(rng, 1+rng.Intn(12)), now)
			case op < 7:
				// A merge in progress: holds pile up until the release.
				c.noteFetched([]*xmldb.Node{tree(rng, 1+rng.Intn(4))}, now, true)
			case op < 8:
				c.release()
			case op < 9:
				c.forget(keyOf(universe[rng.Intn(len(universe))]))
			default:
				// A restart: the checkpoint format carries the stamps, a
				// fresh policy rebuilds its heap from them. Holds do not
				// survive (no merge is in flight across a restart).
				snap := c.snapshot()
				c = newCacheManager()
				c.restore(snap)
			}
			checkHeap(t, c)
			want := sortedCandidates(c)
			got := drainOrder(c)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("seed %d step %d: eviction order differs from the sort oracle:\n got %q\nwant %q", seed, step, got, want)
			}
			checkHeap(t, c)
		}
		if len(c.snapshot()) == 0 {
			t.Fatalf("seed %d: test premise broken: nothing tracked at the end", seed)
		}
	}
}
