package site

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// durHarness is a minimal deployment for durability tests: one registry and
// network, the workload document, and the partition base every restart
// recovers against (exactly what the cluster harness retains).
type durHarness struct {
	net      *transport.SimNet
	registry *naming.Registry
	db       *workload.DB
	assign   *fragment.Assignment
	stores   map[string]*fragment.Store
	owned    map[string][]xmldb.IDPath
	clock    func() float64
}

// newDurHarness builds the harness with every node assigned to one site.
func newDurHarness(t *testing.T, owner string) *durHarness {
	return newSplitDurHarness(t, owner, nil)
}

// newSplitDurHarness is newDurHarness with some subtrees assigned to other
// sites by split, so the main site has something to fetch and cache.
func newSplitDurHarness(t *testing.T, owner string, split func(*workload.DB, *fragment.Assignment)) *durHarness {
	t.Helper()
	return newDurHarnessOn(t, workload.DBConfig{Cities: 1, Neighborhoods: 2, Blocks: 2, Spaces: 3, Seed: 7}, owner, split)
}

// newDurHarnessOn is newSplitDurHarness over a document of the given shape.
func newDurHarnessOn(t *testing.T, cfg workload.DBConfig, owner string, split func(*workload.DB, *fragment.Assignment)) *durHarness {
	t.Helper()
	db := workload.Build(cfg)
	assign := fragment.NewAssignment(owner)
	if split != nil {
		split(db, assign)
	}
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		t.Fatal(err)
	}
	h := &durHarness{
		net:      transport.NewSimNet(transport.SimConfig{}),
		registry: naming.NewRegistry(),
		db:       db,
		assign:   assign,
		stores:   stores,
		owned:    owned,
		clock:    func() float64 { return 1000 },
	}
	h.registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	return h
}

// start builds, recovers and starts a site. The partition base is passed to
// Recover every time, the way a restart does; whether the site actually used
// it (cold start) or recovered from disk is returned.
func (h *durHarness) start(t *testing.T, name, dataDir string, mut func(*Config)) (*Site, bool) {
	t.Helper()
	sc := Config{
		Name:     name,
		Service:  workload.Service,
		Net:      h.net,
		DNS:      naming.NewClient(h.registry, workload.Service, time.Hour, nil),
		Registry: h.registry,
		Schema:   h.db.Schema,
		CPUSlots: 1,
		Clock:    h.clock,
		DataDir:  dataDir,
	}
	if mut != nil {
		mut(&sc)
	}
	s := New(sc, workload.RootName, workload.RootID)
	base := h.stores[name]
	if base == nil {
		base = fragment.NewStore(workload.RootName, workload.RootID)
	}
	recovered, err := s.Recover(base, h.owned[name])
	if err != nil {
		t.Fatalf("recover %s: %v", name, err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, recovered
}

// storeBytes serializes a site's published store.
func storeBytes(s *Site) string {
	snap := s.StoreSnapshot()
	return snap.Root.StringSized(snap.Size())
}

func sortedOwned(s *Site) []string {
	keys := s.OwnedPaths()
	sort.Strings(keys)
	return keys
}

// siteImage is everything recovery must reproduce: the store bytes, the
// ownership and forwarding tables, the subscription table with its
// watermarks, and the set of units the residency policy tracks (their stamps
// move with every query's touch, which is not a logged event).
type siteImage struct {
	Store      string            `json:"store"`
	Owned      []string          `json:"owned"`
	Forwarding map[string]string `json:"forwarding,omitempty"`
	Subs       []ckptSub         `json:"subs,omitempty"`
	Units      []string          `json:"units,omitempty"`
}

func imageOf(s *Site) siteImage {
	img := siteImage{Store: storeBytes(s), Owned: sortedOwned(s), Forwarding: s.Debug().Forwarding}
	s.subMu.Lock()
	for _, sub := range s.subs {
		img.Subs = append(img.Subs, ckptSub{Root: sub.root.String(), Owner: sub.owner,
			OwnedPaths: pathStrings(sub.ownedPaths), Seq: sub.seq, OwnerClock: sub.ownerClock})
	}
	s.subMu.Unlock()
	sort.Slice(img.Subs, func(i, j int) bool { return img.Subs[i].Root < img.Subs[j].Root })
	if s.cache != nil {
		for k := range s.cache.snapshot() {
			img.Units = append(img.Units, k)
		}
		sort.Strings(img.Units)
	}
	return img
}

// requireImage fails unless the recovered site reproduces the live image.
func requireImage(t *testing.T, what string, got, want siteImage) {
	t.Helper()
	if got.Store != want.Store {
		t.Fatalf("%s: recovered store differs from live store (%d vs %d bytes)\n got %s\nwant %s",
			what, len(got.Store), len(want.Store), got.Store, want.Store)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		got.Store, want.Store = "", ""
		g, _ = json.Marshal(got)
		w, _ = json.Marshal(want)
		t.Fatalf("%s: recovered tables differ from live ones\n got %s\nwant %s", what, g, w)
	}
}

// send delivers one message through the wire path and fails the test on any
// error, the receiver's included.
func (h *durHarness) send(t *testing.T, to string, msg *Message) {
	t.Helper()
	respB, err := h.net.Call(to, msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.AsError(); e != nil {
		t.Fatalf("%s %s%s at %s: %v", msg.Kind, msg.Path, msg.Query, to, e)
	}
}

// update applies one sensor update.
func (h *durHarness) update(t *testing.T, to string, p xmldb.IDPath, fields, attrs map[string]string) {
	t.Helper()
	h.send(t, to, &Message{Kind: KindUpdate, Path: p.String(), Fields: fields, Attrs: attrs})
}

// query runs one query at a site and discards the (error-free) answer.
func (h *durHarness) query(t *testing.T, to, q string) {
	t.Helper()
	h.send(t, to, &Message{Kind: KindQuery, Query: q})
}

// TestDurableRecoveryMatchesLive is the recovery property test: after N
// random committed transactions, a crash-recovered site is byte-identical to
// the live store it replaced, with the same ownership, forwarding and
// subscription tables. Three durable sites take part so that every one of
// the nine op kinds is logged and replayed:
//
//   - solo, a budgeted caching owner: field/attr updates, every schema op,
//     and cache misses whose batch answers commit as multi-merge records with
//     the evictions they force;
//   - blocks, the owner of neighborhood 1's blocks: solo delegates a block to
//     it and it delegates the block back, logging delegate at one end and
//     take at the other, both ways;
//   - replica, seeded with both of blocks' blocks (sync), streamed to by
//     blocks' flusher (merge + mark), and finally promoted for one of them
//     (promote); the other subscription stays, with its seq and watermark.
//
// The take, delegate and promote replay arms had zero test coverage at the
// parent of the PR that gave replay and the live path one applier.
func TestDurableRecoveryMatchesLive(t *testing.T) {
	h := newSplitDurHarness(t, "solo", func(db *workload.DB, a *fragment.Assignment) {
		for b := 0; b < 2; b++ {
			a.Assign(db.BlockPath(0, 1, b), "blocks")
		}
	})
	// Room for one block's units (the block and its spaces) but not for two:
	// every miss evicts.
	block := xmldb.FindByIDPath(h.db.Doc, h.db.BlockPath(0, 1, 0))
	budget := int64(fragment.LocalInfoBytes(block))
	for _, sp := range block.IDableChildren() {
		budget += int64(fragment.LocalInfoBytes(sp))
	}
	budget = budget * 3 / 2
	tmp := t.TempDir()
	configs := map[string]func(*Config){
		"solo": func(c *Config) {
			c.Caching = true
			c.CacheBudgetBytes = budget
		},
		"blocks":  func(c *Config) { c.ReplicaFlushInterval = 2 * time.Millisecond },
		"replica": nil,
	}
	sites := map[string]*Site{}
	for name, mut := range configs {
		var recovered bool
		if sites[name], recovered = h.start(t, name, filepath.Join(tmp, name), mut); recovered {
			t.Fatalf("%s: first start should be cold", name)
		}
	}
	s := sites["solo"]
	promoted, subscribed := h.db.BlockPath(0, 1, 0), h.db.BlockPath(0, 1, 1)
	for _, root := range []xmldb.IDPath{promoted, subscribed} {
		if err := sites["blocks"].AddReadReplica(root, "replica", 30); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(42))
	home := h.db.BlockPath(0, 0, 0)   // schema changes land here
	moving := h.db.BlockPath(0, 0, 1) // delegated to blocks and back
	movingAt := "solo"
	added := []string{}
	for i := 0; i < 240; i++ {
		switch k := rng.Intn(14); {
		case k < 6: // plain sensor update, at whoever owns the space right now
			p := h.db.SpacePaths[rng.Intn(len(h.db.SpacePaths))]
			owner := h.assign.OwnerOf(p)
			if moving.IsPrefixOf(p) {
				owner = movingAt
			}
			fields := map[string]string{"available": fmt.Sprintf("v%d", i)}
			var attrs map[string]string
			if rng.Intn(3) == 0 {
				attrs = map[string]string{"quality": fmt.Sprintf("q%d", i), "src": "sensor"}
			}
			h.update(t, owner, p, fields, attrs)
		case k < 7: // schema: set attributes on an owned node
			err := s.SchemaChange(OpSetAttrs, home, map[string]string{
				"zone": fmt.Sprintf("z%d", i), "rev": fmt.Sprintf("%d", i)})
			if err != nil {
				t.Fatal(err)
			}
		case k < 8: // schema: non-IDable child churn
			if err := s.SchemaChange(OpAddChild, home, map[string]string{
				"name": "note", "text": fmt.Sprintf("n%d", i)}); err != nil {
				t.Fatal(err)
			}
		case k < 9: // schema: add an IDable child (new owned node)
			id := fmt.Sprintf("extra-%d", i)
			if err := s.SchemaChange(OpAddIDable, home, map[string]string{
				"name": "parkingSpace", "id": id}); err != nil {
				t.Fatal(err)
			}
			added = append(added, id)
		case k < 10: // schema: delete one previously added IDable child
			if len(added) == 0 {
				continue
			}
			id := added[len(added)-1]
			added = added[:len(added)-1]
			if err := s.SchemaChange(OpDelIDable, home, map[string]string{
				"name": "parkingSpace", "id": id}); err != nil {
				t.Fatal(err)
			}
		case k < 11: // cache miss: one batch answer, one multi-merge record
			h.query(t, "solo", h.db.NeighborhoodPath(0, 1).String()+"/block/parkingSpace")
		case k < 12: // a pass of the pressure loop (which also runs on its own timer)
			s.relieveCachePressure()
		default: // hand the moving block to the other site
			to := map[string]string{"solo": "blocks", "blocks": "solo"}[movingAt]
			if err := sites[movingAt].Delegate(moving, to); err != nil {
				t.Fatal(err)
			}
			movingAt = to
		}
	}
	m := &s.Metrics
	if m.CacheMergedFragments.Value() <= m.CacheMergeCommits.Value() || m.Evictions.Value() == 0 {
		t.Fatalf("test premise broken: %d fragments in %d merge commits, %d evictions — no multi-merge record with evictions was logged",
			m.CacheMergedFragments.Value(), m.CacheMergeCommits.Value(), m.Evictions.Value())
	}
	// One last miss, so solo's residency policy ends with units to recover;
	// one last streamed value, waited for; then the promotion.
	h.query(t, "solo", h.db.NeighborhoodPath(0, 1).String()+"/block/parkingSpace")
	var last xmldb.IDPath
	for _, p := range h.db.SpacePaths {
		if promoted.IsPrefixOf(p) {
			last = p
		}
	}
	h.update(t, "blocks", last, map[string]string{"available": "streamed-last"}, nil)
	for deadline := time.Now().Add(2 * time.Second); !strings.Contains(storeBytes(sites["replica"]), "streamed-last"); {
		if time.Now().After(deadline) {
			t.Fatal("replica never received the last streamed update")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sites["replica"].Promote(promoted); err != nil {
		t.Fatal(err)
	}

	// Capture and kill in an order that leaves nothing writing to a site
	// between its capture and its crash: solo after a last pressure pass (its
	// background loop then finds nothing to publish), blocks next — Crash
	// waits out its replication sends — and the replica once its stream is dead.
	s.relieveCachePressure()
	want := map[string]siteImage{}
	for _, name := range []string{"solo", "blocks", "replica"} {
		want[name] = imageOf(sites[name])
		sites[name].Crash()
	}
	if subs := want["replica"].Subs; len(subs) != 1 || subs[0].Seq == 0 || subs[0].OwnerClock == 0 {
		t.Fatalf("test premise broken: replica subscriptions %+v, want the one that was not promoted, advanced", subs)
	}
	if len(want["solo"].Units) == 0 {
		t.Fatal("test premise broken: solo's residency policy tracks nothing")
	}
	logged := map[string]int{}
	for name := range sites {
		for op, n := range loggedOps(t, filepath.Join(tmp, name)) {
			logged[op] += n
		}
	}
	for _, op := range allOps {
		if logged[op] == 0 {
			t.Fatalf("test premise broken: no %q record was logged (%v)", op, logged)
		}
	}

	for name, mut := range configs {
		s2, recovered := h.start(t, name, filepath.Join(tmp, name), mut)
		if !recovered {
			t.Fatalf("%s: restart should recover from disk", name)
		}
		requireImage(t, name, imageOf(s2), want[name])
		if s2.RecoverySeconds() <= 0 {
			t.Fatalf("%s: recovery duration not recorded", name)
		}
		sites[name] = s2
	}
	// Recovered ownership is re-registered with naming.
	if owner, ok := h.registry.Lookup(naming.DNSName(h.db.SpacePaths[0], workload.Service)); !ok || owner != "solo" {
		t.Fatalf("naming not re-registered: owner = %q, %v", owner, ok)
	}

	// Recover twice: a clean stop followed by another recovery must land on
	// the same bytes again (recovery is deterministic and lossless).
	sites["solo"].Stop()
	s3, recovered := h.start(t, "solo", filepath.Join(tmp, "solo"), configs["solo"])
	if !recovered {
		t.Fatal("second restart should recover from disk")
	}
	if got := storeBytes(s3); got != want["solo"].Store {
		t.Fatal("second recovery not byte-identical")
	}
}

// TestDurableAckedUpdateSurvivesCrash is the narrow acked-durability check:
// an update acked before kill -9 is present after recovery even though no
// checkpoint ever covered it.
func TestDurableAckedUpdateSurvivesCrash(t *testing.T) {
	h := newDurHarness(t, "solo")
	dir := filepath.Join(t.TempDir(), "solo")
	s, _ := h.start(t, "solo", dir, nil)
	target := h.db.SpacePaths[1]
	h.update(t, "solo", target, map[string]string{"available": "acked-before-crash"}, nil)
	s.Crash()

	s2, recovered := h.start(t, "solo", dir, nil)
	if !recovered {
		t.Fatal("restart should recover from disk")
	}
	n := s2.StoreSnapshot().NodeAt(target)
	if n == nil {
		t.Fatalf("node %s missing after recovery", target)
	}
	found := false
	for _, c := range n.ChildrenNamed("available") {
		if c.Text == "acked-before-crash" {
			found = true
		}
	}
	if !found {
		t.Fatalf("acked update lost across crash: %s", n.Canonical())
	}
}

// TestDurableTornCheckpointFallsBack corrupts the newest checkpoint and
// verifies recovery falls back to the older one plus a longer log replay,
// still landing byte-identical.
func TestDurableTornCheckpointFallsBack(t *testing.T) {
	h := newDurHarness(t, "solo")
	dir := filepath.Join(t.TempDir(), "solo")
	s, _ := h.start(t, "solo", dir, nil)

	h.update(t, "solo", h.db.SpacePaths[0], map[string]string{"available": "before-ckpt"}, nil)
	if err := s.dur.checkpoint(); err != nil {
		t.Fatal(err)
	}
	h.update(t, "solo", h.db.SpacePaths[1], map[string]string{"available": "after-ckpt"}, nil)

	want := storeBytes(s)
	s.Crash()

	// Tear the newest checkpoint file in half, as a crash mid-write would
	// if the atomic rename were not there.
	lsns := listCheckpoints(dir)
	if len(lsns) < 2 {
		t.Fatalf("expected >= 2 checkpoints, got %v", lsns)
	}
	newest := filepath.Join(dir, ckptName(lsns[len(lsns)-1]))
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recovered := h.start(t, "solo", dir, nil)
	if !recovered {
		t.Fatal("restart should recover from disk")
	}
	if got := storeBytes(s2); got != want {
		t.Fatal("fallback recovery not byte-identical")
	}
}

// TestDurableReplicaWatermarkPersists crashes and recovers a durable read
// replica: the replication watermark must not regress, and the owner's
// stream must keep applying cleanly where it left off.
func TestDurableReplicaWatermarkPersists(t *testing.T) {
	d := deployCfg(t, false, transport.SimConfig{}, func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	dir := filepath.Join(t.TempDir(), "replica-1")
	mkReplica := func() *Site {
		sc := Config{
			Name:                 "replica-1",
			Service:              workload.Service,
			Net:                  d.net,
			DNS:                  naming.NewClient(d.registry, workload.Service, time.Hour, nil),
			Registry:             d.registry,
			Schema:               d.db.Schema,
			CPUSlots:             1,
			Clock:                d.clock,
			DataDir:              dir,
			ReplicaFlushInterval: 2 * time.Millisecond,
		}
		s := New(sc, workload.RootName, workload.RootID)
		if _, err := s.Recover(fragment.NewStore(workload.RootName, workload.RootID), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		d.sites["replica-1"] = s
		return s
	}
	rep := mkReplica()

	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	owner := d.sites[ownerName]
	if err := owner.AddReadReplica(nbPath, "replica-1", 30); err != nil {
		t.Fatal(err)
	}
	target := spaceUnder(t, d, nbPath)
	sendUpdate(t, d, ownerName, target, "v1")
	awaitValue(t, d, "replica-1", target, "v1")
	w1, ok := rep.ReplicaWatermark(nbPath)
	if !ok {
		t.Fatal("no watermark before crash")
	}

	rep.Crash()
	rep2 := mkReplica()
	w2, ok := rep2.ReplicaWatermark(nbPath)
	if !ok {
		t.Fatal("subscription lost across crash")
	}
	if w2 < w1 {
		t.Fatalf("watermark regressed across restart: %v -> %v", w1, w2)
	}
	// The replicated copy itself was recovered: the replica serves the last
	// acked value locally, and the still-running owner stream resumes at
	// the recovered sequence number.
	awaitValue(t, d, "replica-1", target, "v1")
	if asked := rep2.Metrics.Subqueries.Value(); asked != 0 {
		t.Fatalf("recovered replica issued %d subqueries for replicated data", asked)
	}
	sendUpdate(t, d, ownerName, target, "v2")
	awaitValue(t, d, "replica-1", target, "v2")
}

// TestDurableWarmCacheRecovered restarts a caching entry site and verifies
// the cache comes back warm — repeat queries are answered locally — and is
// trimmed to a shrunken budget on the way in, where the same restart over a
// wiped data directory (a cold rejoin) has to fetch the answer again.
func TestDurableWarmCacheRecovered(t *testing.T) {
	d := deployCfg(t, false, transport.SimConfig{}, nil)
	dir := filepath.Join(t.TempDir(), "entry")
	// The entry's clock moves between queries, so the cache has a coldest
	// unit for the trim to take.
	var sec atomic.Int64
	sec.Store(1000)
	mkEntry := func(budget int64) *Site {
		sc := Config{
			Name:             "entry",
			Service:          workload.Service,
			Net:              d.net,
			DNS:              naming.NewClient(d.registry, workload.Service, time.Hour, nil),
			Registry:         d.registry,
			Schema:           d.db.Schema,
			Caching:          true,
			CacheBudgetBytes: budget,
			CPUSlots:         1,
			Clock:            func() float64 { return float64(sec.Load()) },
			DataDir:          dir,
		}
		s := New(sc, workload.RootName, workload.RootID)
		if _, err := s.Recover(fragment.NewStore(workload.RootName, workload.RootID), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		d.sites["entry"] = s
		return s
	}
	entry := mkEntry(1 << 20)

	q, hotQ := d.db.BlockQuery(0, 0, 0), d.db.BlockQuery(1, 1, 2)
	want, hotWant := centralAnswer(t, d, q), centralAnswer(t, d, hotQ)
	d.query(t, "entry", q)
	sec.Add(1)
	d.query(t, "entry", hotQ)
	if entry.CachedFragments() == 0 {
		t.Fatal("entry cached nothing")
	}
	preBytes := entry.CacheBytes()
	entry.Crash()

	// Recover with a budget below the cached footprint: the rehydrated
	// cache must come back trimmed, coldest units first.
	smallBudget := int64(preBytes * 3 / 4)
	entry2 := mkEntry(smallBudget)
	if entry2.CachedFragments() == 0 {
		t.Fatal("cache did not survive restart")
	}
	if got := int64(entry2.CacheBytes()); got > smallBudget {
		t.Fatalf("recovered cache over budget: %d > %d", got, smallBudget)
	}
	// Warm restart: the query used last before the crash survived the trim
	// and is answered from the recovered cache without asking any other site.
	got := extracted(t, d.query(t, "entry", hotQ), hotQ, d.clock)
	if strings.Join(got, "|") != strings.Join(hotWant, "|") {
		t.Fatalf("post-restart answer wrong:\n got %v\nwant %v", got, hotWant)
	}
	if hits, asked := entry2.Metrics.CacheHits.Value(), entry2.Metrics.Subqueries.Value(); hits != 1 || asked != 0 {
		t.Fatalf("warm restart: %d cache hits, %d subqueries for a cached query, want 1 and 0", hits, asked)
	}
	// Whatever the trim evicted is fetched again, correctly.
	got = extracted(t, d.query(t, "entry", q), q, d.clock)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("post-restart answer wrong:\n got %v\nwant %v", got, want)
	}
	entry2.Crash()

	// Cold control: the same restart over a wiped directory rejoins with
	// nothing cached and must go back to the owners for the same query.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cold := mkEntry(smallBudget)
	if n := cold.CachedFragments(); n != 0 {
		t.Fatalf("cold rejoin came back with %d cached fragments", n)
	}
	got = extracted(t, d.query(t, "entry", hotQ), hotQ, d.clock)
	if strings.Join(got, "|") != strings.Join(hotWant, "|") {
		t.Fatalf("cold-rejoin answer wrong:\n got %v\nwant %v", got, hotWant)
	}
	if hits, asked := cold.Metrics.CacheHits.Value(), cold.Metrics.Subqueries.Value(); hits != 0 || asked == 0 {
		t.Fatalf("cold rejoin: %d cache hits, %d subqueries, want a miss that asks the owners", hits, asked)
	}
}

// TestSiteStopReleasesGoroutines is the shutdown leak regression test: a
// deployment exercising the pressure loop, the checkpoint loop and
// per-stream replication flushes must return the process to its baseline
// goroutine count after Stop.
func TestSiteStopReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	d := deployCfg(t, true, transport.SimConfig{}, func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
		c.CacheBudgetBytes = 1 << 20
	})
	rep := addReplicaSite(t, d, "replica-1", func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	_ = rep
	h := newDurHarness(t, "durable-solo")
	dir := filepath.Join(t.TempDir(), "durable-solo")
	durable, _ := h.start(t, "durable-solo", dir, func(c *Config) {
		c.Caching = true
		c.CacheBudgetBytes = 1 << 20
		c.CheckpointInterval = 5 * time.Millisecond
	})

	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	if err := d.sites[ownerName].AddReadReplica(nbPath, "replica-1", 30); err != nil {
		t.Fatal(err)
	}
	target := spaceUnder(t, d, nbPath)
	sendUpdate(t, d, ownerName, target, "leak-check")
	awaitValue(t, d, "replica-1", target, "leak-check")
	h.update(t, "durable-solo", h.db.SpacePaths[0], map[string]string{"available": "x"}, nil)
	d.query(t, "city-"+workload.CityName(0), d.db.BlockQuery(0, 0, 0))

	for _, s := range d.sites {
		s.Stop()
	}
	durable.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var buf strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	t.Fatalf("goroutines leaked after Stop: %d -> %d\n%s",
		before, runtime.NumGoroutine(), buf.String())
}

// TestReplicatedBatchIsOneRecord: an applied KindReplicate batch — the merge
// of its delta and the watermark it carries — is one commit and so one WAL
// record [merge, mark]. It was two at the parent of the PR that introduced
// the commit point: the mark was appended on its own, outside wmu. A
// heartbeat is one record holding only the mark.
func TestReplicatedBatchIsOneRecord(t *testing.T) {
	h := newDurHarness(t, "owner")
	// The flusher never ticks: the test delivers the stream by hand.
	owner, _ := h.start(t, "owner", "", func(c *Config) { c.ReplicaFlushInterval = time.Hour })
	dir := filepath.Join(t.TempDir(), "rep")
	rep, _ := h.start(t, "rep", dir, nil)
	space := h.db.SpacePaths[0]
	root := space.Parent()
	if err := owner.AddReadReplica(root, "rep", 30); err != nil {
		t.Fatal(err)
	}
	h.update(t, "owner", space, map[string]string{"available": "streamed"}, nil)
	delta, err := fragment.BuildDelta(owner.StoreSnapshot().Seal(), []xmldb.IDPath{space})
	if err != nil {
		t.Fatal(err)
	}

	appends := rep.Metrics.WALAppends.Value()
	h.send(t, "rep", &Message{Kind: KindReplicate, Path: root.String(),
		Fragment: delta.Root.StringSized(delta.Size()), Seq: 1, ClockSec: 1001})
	if got := rep.Metrics.WALAppends.Value() - appends; got != 1 {
		t.Fatalf("a replicated batch appended %d WAL records, want 1", got)
	}
	h.send(t, "rep", &Message{Kind: KindReplicate, Path: root.String(), Seq: 2, ClockSec: 1002})
	if got := rep.Metrics.WALAppends.Value() - appends; got != 2 {
		t.Fatalf("batch + heartbeat appended %d WAL records, want 2", got)
	}
	want := imageOf(rep)
	if len(want.Subs) != 1 || want.Subs[0].Seq != 2 || want.Subs[0].OwnerClock != 1002 ||
		!strings.Contains(want.Store, "streamed") {
		t.Fatalf("batch not applied: %+v", want)
	}
	rep.Crash()
	if logged := loggedOps(t, dir); logged[opMerge] != 1 || logged[opMark] != 2 {
		t.Fatalf("logged %v, want one merge and two marks", logged)
	}
	rep2, _ := h.start(t, "rep", dir, nil)
	requireImage(t, "rep", imageOf(rep2), want)
}
