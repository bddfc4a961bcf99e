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
	"irisnet/internal/wal"
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
// ownership and forwarding tables, and the set of units the residency policy
// tracks (their stamps move with every query's touch, which is not a logged
// event).
type siteImage struct {
	Store      string            `json:"store"`
	Owned      []string          `json:"owned"`
	Forwarding map[string]string `json:"forwarding,omitempty"`
	Units      []string          `json:"units,omitempty"`
}

func imageOf(s *Site) siteImage {
	img := siteImage{Store: storeBytes(s), Owned: sortedOwned(s), Forwarding: s.Debug().Forwarding}
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
// residency tables. Two durable sites take part so that every op kind a live
// site writes is logged and replayed:
//
//   - solo, a budgeted caching owner: field/attr updates, every schema op,
//     and cache misses whose batch answers commit as multi-merge records with
//     the evictions they force;
//   - blocks, the owner of neighborhood 1's blocks: solo delegates a block to
//     it and it delegates the block back, logging delegate at one end and
//     take at the other, both ways.
//
// It is the only test of the take and delegate replay arms.
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
		"blocks": nil,
	}
	sites := map[string]*Site{}
	for name, mut := range configs {
		var recovered bool
		if sites[name], recovered = h.start(t, name, filepath.Join(tmp, name), mut); recovered {
			t.Fatalf("%s: first start should be cold", name)
		}
	}
	s := sites["solo"]

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
	// The moving block is owned where the schedule left it alone, and the
	// other site forwards to it: the state the take and delegate arms must
	// replay to.
	other := map[string]string{"solo": "blocks", "blocks": "solo"}[movingAt]
	if !sites[movingAt].Owns(moving) || sites[other].Owns(moving) ||
		sites[other].Debug().Forwarding[moving.Key()] != movingAt {
		t.Fatalf("moving block: owned at %s %v, at %s %v, forwarded by %s to %q; want %s alone, forwarded to by %s",
			movingAt, sites[movingAt].Owns(moving), other, sites[other].Owns(moving),
			other, sites[other].Debug().Forwarding[moving.Key()], movingAt, other)
	}
	// One last miss, so solo's residency policy ends with units to recover.
	h.query(t, "solo", h.db.NeighborhoodPath(0, 1).String()+"/block/parkingSpace")

	// Capture solo after a last pressure pass, so its background loop finds
	// nothing to publish between the capture and the crash.
	s.relieveCachePressure()
	want := map[string]siteImage{}
	for _, name := range []string{"solo", "blocks"} {
		want[name] = imageOf(sites[name])
		sites[name].Crash()
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
	for _, op := range liveOps {
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

// TestDurableRecoveryRefusesUndecodableRecord appends a frame whose CRC
// holds but whose payload is not a WAL record: recovery must fail and name
// its LSN rather than come up without that transaction.
func TestDurableRecoveryRefusesUndecodableRecord(t *testing.T) {
	h := newDurHarness(t, "solo")
	dir := filepath.Join(t.TempDir(), "solo")
	s, _ := h.start(t, "solo", dir, nil)
	h.update(t, "solo", h.db.SpacePaths[0], map[string]string{"available": "logged"}, nil)
	s.Crash()

	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := log.Append([]byte("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{
		Name:     "solo",
		Service:  workload.Service,
		Net:      h.net,
		DNS:      naming.NewClient(h.registry, workload.Service, time.Hour, nil),
		Registry: h.registry,
		Schema:   h.db.Schema,
		Clock:    h.clock,
		DataDir:  dir,
	}, workload.RootName, workload.RootID)
	_, err = s2.Recover(h.stores["solo"], h.owned["solo"])
	if err == nil {
		t.Fatal("recovery skipped an undecodable record")
	}
	if want := fmt.Sprintf("lsn %d", lsn); !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery error %q does not name %s", err, want)
	}
}

// TestDurableRecoveryRefusesFailingRecord appends a record that decodes but
// whose second op cannot apply (a merge with no fragment) after a valid
// update: replay must fail and name the record's LSN and the op, rather than
// skip the op and publish the update alone — a state no live site ever had,
// since a live commit of that record fails as a whole.
func TestDurableRecoveryRefusesFailingRecord(t *testing.T) {
	h := newDurHarness(t, "solo")
	dir := filepath.Join(t.TempDir(), "solo")
	s, _ := h.start(t, "solo", dir, nil)
	s.Crash()

	rec, err := json.Marshal(walRecord{Ops: []walOp{
		{Op: opUpdate, Path: h.db.SpacePaths[0].String(), Fields: map[string]string{"available": "half"}, TS: 1},
		{Op: opMerge},
	}})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := log.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{
		Name:     "solo",
		Service:  workload.Service,
		Net:      h.net,
		DNS:      naming.NewClient(h.registry, workload.Service, time.Hour, nil),
		Registry: h.registry,
		Schema:   h.db.Schema,
		Clock:    h.clock,
		DataDir:  dir,
	}, workload.RootName, workload.RootID)
	_, err = s2.Recover(h.stores["solo"], h.owned["solo"])
	if err == nil {
		t.Fatal("recovery skipped an op that failed to apply")
	}
	if want := fmt.Sprintf("lsn %d: op 1 (merge)", lsn); !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery error %q does not name %s", err, want)
	}
}

// TestDurableFailedLogRefusesUpdate fails the log underneath a durable site:
// an update it can no longer log must get an error, not an ack, and must not
// become visible.
func TestDurableFailedLogRefusesUpdate(t *testing.T) {
	h := newDurHarness(t, "solo")
	s, _ := h.start(t, "solo", filepath.Join(t.TempDir(), "solo"), nil)
	target := h.db.SpacePaths[1]
	old := s.StoreSnapshot().NodeAt(target).Canonical()
	if err := s.dur.log.Close(); err != nil {
		t.Fatal(err)
	}

	msg := &Message{Kind: KindUpdate, Path: target.String(), Fields: map[string]string{"available": "never-logged"}}
	respB, err := h.net.Call("solo", msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.AsError() == nil {
		t.Fatalf("update acked (%s) although its WAL record could not be written", resp.Kind)
	}
	if got := s.StoreSnapshot().NodeAt(target).Canonical(); got != old {
		t.Fatalf("unlogged update published:\n got %s\nwant %s", got, old)
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
// deployment exercising the pressure loop and the checkpoint loop must
// return the process to its baseline goroutine count after Stop.
func TestSiteStopReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	d := deployCfg(t, true, transport.SimConfig{}, func(c *Config) {
		c.CacheBudgetBytes = 1 << 20
	})
	h := newDurHarness(t, "durable-solo")
	dir := filepath.Join(t.TempDir(), "durable-solo")
	durable, _ := h.start(t, "durable-solo", dir, func(c *Config) {
		c.Caching = true
		c.CacheBudgetBytes = 1 << 20
		c.CheckpointInterval = 5 * time.Millisecond
	})

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
