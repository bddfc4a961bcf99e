package site

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/transport"
	"irisnet/internal/wal"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// liveOps is every kind of operation a live site writes to its WAL.
var liveOps = []string{opUpdate, opMerge, opEvict, opTake, opDelegate, opSchema}

// allOps is every kind of operation a WAL record can carry: the live ones and
// the replay-only ones older logs hold.
var allOps = append([]string{opSync, opMark, opPromote}, liveOps...)

// loggedOps counts the operations of each kind in the WAL under dir. It
// opens the log the way recovery does, so call it on a directory no site is
// using.
func loggedOps(t *testing.T, dir string) map[string]int {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Abandon()
	counts := map[string]int{}
	err = log.Replay(0, func(lsn uint64, payload []byte) error {
		var r walRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		for _, op := range r.Ops {
			counts[op.Op]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// goldenDB is the shape of the document the golden site served: small, so the
// checked-in directory stays a few KB.
var goldenDB = workload.DBConfig{Cities: 1, Neighborhoods: 2, Blocks: 2, Spaces: 1, Seed: 7}

// goldenFile is testdata/golden-datadir/want.json: how the site that wrote
// the directory was configured, and the image it held when it was killed.
type goldenFile struct {
	Site             string    `json:"site"`
	CacheBudgetBytes int64     `json:"cacheBudgetBytes"`
	Image            siteImage `json:"image"`
}

// TestGoldenDataDirRecovers pins the on-disk formats: the data directory
// under testdata/golden-datadir was written by the code at commit 573655f
// (one checkpoint and a log tail with at least one record of each of the nine
// op kinds, recorded as that commit wrote them: a replicated batch is still a
// merge record followed by a mark record there) and must keep recovering to
// the image that site held when it was killed. See the README next to it for
// the schedule that produced it. The image's read-replica subscriptions
// ("subs" in want.json) are not compared: sites keep no subscriptions, and the
// data a subscription brought in recovers as a cached copy.
func TestGoldenDataDirRecovers(t *testing.T) {
	src := filepath.Join("testdata", "golden-datadir")
	b, err := os.ReadFile(filepath.Join(src, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	// Recovery checkpoints and prunes in place: work on a copy.
	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join(src, "data"))
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range ents {
		if _, ok := parseCkptName(e.Name()); ok {
			ckpts++
		}
		fb, err := os.ReadFile(filepath.Join(src, "data", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), fb, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ckpts != 1 {
		t.Fatalf("golden directory holds %d checkpoints, want 1", ckpts)
	}
	logged := loggedOps(t, dir)
	for _, op := range allOps {
		if logged[op] == 0 {
			t.Fatalf("golden log holds no %q record (has %v)", op, logged)
		}
	}

	registry := naming.NewRegistry()
	s := New(Config{
		Name:             want.Site,
		Service:          workload.Service,
		Net:              transport.NewSimNet(transport.SimConfig{}),
		DNS:              naming.NewClient(registry, workload.Service, time.Hour, nil),
		Registry:         registry,
		Schema:           workload.ParkingSchema(),
		Caching:          true,
		CacheBudgetBytes: want.CacheBudgetBytes,
		CPUSlots:         1,
		Clock:            func() float64 { return 1000 },
		DataDir:          dir,
	}, workload.RootName, workload.RootID)
	recovered, err := s.Recover(fragment.NewStore(workload.RootName, workload.RootID), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("golden directory was treated as a cold start")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	requireImage(t, want.Site, imageOf(s), want.Image)

	// Block (0,1,1) was still subscribed when the site was killed: its sync
	// record recovers it as a complete cached copy that nothing owns.
	sub := workload.Build(goldenDB).BlockPath(0, 1, 1)
	store := s.StoreSnapshot()
	n := store.NodeAt(sub)
	if n == nil {
		t.Fatalf("formerly subscribed block %s missing after recovery", sub)
	}
	n.Walk(func(c *xmldb.Node) bool {
		if c.ID() == "" {
			return true
		}
		if st := fragment.StatusOf(c); st != fragment.StatusComplete {
			t.Errorf("<%s id=%q> under %s recovered as %v, want complete", c.Name, c.ID(), sub, st)
		}
		return true
	})
	for _, k := range s.OwnedPaths() {
		if keyUnder(k, sub.Key()) {
			t.Errorf("formerly subscribed %s recovered as owned", k)
		}
	}
}
