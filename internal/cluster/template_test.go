package cluster

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"sync"
	"testing"
	"time"

	"irisnet/internal/site"
	"irisnet/internal/workload"
)

// lockedBuffer is a log sink several sites write to at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// records decodes the JSON log lines written so far.
func (b *lockedBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("log line: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

// TestSiteTemplateReachesEverySite: options set once on Config.Site govern
// every site of the cluster, a replica site added later included. Each site
// logs to the template's logger under its own "site" attribute, a caching
// site warns about an answer older than the template's StaleAnswerThreshold,
// and with a one-byte BatchByteCap three subqueries bound for one site leave
// as three one-entry messages, not one batch of three, from the central site
// and the replica alike.
func TestSiteTemplateReachesEverySite(t *testing.T) {
	var logs lockedBuffer
	clock := newStepClock()
	// Architecture 3 with one worker: the central site knows every block
	// and all of them live on block-site-0.
	c, err := New(DistQueryFixed, Config{
		DB:         tinyDB(),
		BlockSites: 1,
		Site: site.Config{
			Caching:              true,
			Clock:                clock.now,
			BatchByteCap:         1,
			StaleAnswerThreshold: 30 * time.Second,
			Logger:               slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const replica = "replica-1"
	nb := c.DB.NeighborhoodPath(0, 0)
	if _, err := c.AddReplicaSite(replica); err != nil {
		t.Fatal(err)
	}
	if err := c.Sites[CentralSite].AddReadReplica(nb, replica, 3600); err != nil {
		t.Fatal(err)
	}

	fe := c.NewFrontend()
	if err := fe.Update(c.DB.SpacePaths[0], map[string]string{"available": "yes"}, nil); err != nil {
		t.Fatal(err)
	}
	q := nb.String() + "/block/parkingSpace"
	for _, entry := range []string{CentralSite, replica} {
		fe.ForceEntry = entry
		if _, err := fe.Query(q); err != nil {
			t.Fatalf("query at %s: %v", entry, err)
		}
		m := &c.Sites[entry].Metrics
		if sub, rpcs, size := m.Subqueries.Value(), m.SubqueryRPCs.Value(), m.BatchSize.Mean(); sub != int64(c.DB.Cfg.Blocks) || rpcs != sub || size != 1 {
			t.Fatalf("%s: %d subqueries left as %d messages of %v entries on average; the 1-byte cap wants %d one-entry messages",
				entry, sub, rpcs, size, c.DB.Cfg.Blocks)
		}
	}
	// The central site cached the blocks; a minute later the same answer is
	// older than the threshold.
	clock.sec.Add(60)
	fe.ForceEntry = CentralSite
	if _, err := fe.Query(q); err != nil {
		t.Fatal(err)
	}

	logged := map[string]bool{}
	staleAt := ""
	for _, rec := range logs.records(t) {
		name, _ := rec["site"].(string)
		logged[name] = true
		if rec["msg"] == "stale answer" {
			staleAt = name
		}
	}
	for name := range c.Sites {
		if !logged[name] {
			t.Errorf("site %s logged nothing under its own site attribute (saw %v)", name, logged)
		}
	}
	if len(logged) != len(c.Sites) {
		t.Errorf("log records carry site attributes %v, want exactly the %d sites", logged, len(c.Sites))
	}
	if staleAt != CentralSite {
		t.Errorf("stale-answer warning logged by %q, want %s", staleAt, CentralSite)
	}
}

// TestPaperCalibrationSiteConfigGolden pins what PaperCalibration hands
// every site: the synthetic service-time model, one CPU slot, and every
// caching and plan flag off. Figures 7, 10 and 11 keep their shapes because
// of these values; the expected ones are what the field-by-field copy
// produced before cluster.Config carried a site.Config template.
func TestPaperCalibrationSiteConfigGolden(t *testing.T) {
	cfg := PaperCalibration(Config{DB: workload.PaperSmall()})
	if cfg.Latency != 1500*time.Microsecond || cfg.Jitter != 0 || cfg.PerMessage != 0 || cfg.Bandwidth != 0 {
		t.Fatalf("network calibration = %v/%v/%v/%v, want 1.5ms one-way and nothing else",
			cfg.Latency, cfg.Jitter, cfg.PerMessage, cfg.Bandwidth)
	}
	c, err := New(Hierarchical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := site.Config{
		QueryWork:   2 * time.Millisecond,
		PerNodeWork: 40 * time.Microsecond,
		UpdateWork:  4 * time.Millisecond,
		CPUSlots:    1,
	}
	for name := range c.Sites {
		got := c.siteConfig(name)
		if got.Name != name || got.Service != workload.Service || got.Net != c.Net ||
			got.DNS == nil || got.Registry != c.Registry || got.Schema != c.DB.Schema {
			t.Fatalf("%s: cluster wiring not filled in: %+v", name, got)
		}
		got.Name, got.Service, got.Net, got.DNS, got.Registry, got.Schema = "", "", nil, nil, nil, nil
		if got.CPUSlots == 0 {
			got.CPUSlots = 1 // transport.NewCPU's floor, which the old copy spelled out
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: calibrated site config\n got %+v\nwant %+v", name, got, want)
		}
	}
}
