package site

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irisnet/internal/naming"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// spaceUnder returns a parking-space path below the given neighborhood.
func spaceUnder(t *testing.T, d *testDeployment, nb xmldb.IDPath) xmldb.IDPath {
	t.Helper()
	prefix := nb.Key() + "/"
	for _, p := range d.db.SpacePaths {
		if strings.HasPrefix(p.Key(), prefix) {
			return p
		}
	}
	t.Fatalf("no space under %s", nb)
	return nil
}

// addReplicaSite wires an empty site (no owned data) into a test
// deployment, the way the bench harness adds read replicas.
func addReplicaSite(t *testing.T, d *testDeployment, name string, mut func(*Config)) *Site {
	t.Helper()
	sc := Config{
		Name:     name,
		Service:  workload.Service,
		Net:      d.net,
		DNS:      naming.NewClient(d.registry, workload.Service, time.Hour, nil),
		Registry: d.registry,
		Schema:   d.db.Schema,
		CPUSlots: 1,
		Clock:    d.clock,
	}
	if mut != nil {
		mut(&sc)
	}
	s := New(sc, workload.RootName, workload.RootID)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	d.sites[name] = s
	return s
}

// sendUpdate applies a sensor update through the wire path.
func sendUpdate(t *testing.T, d *testDeployment, to string, p xmldb.IDPath, value string) {
	t.Helper()
	msg := &Message{Kind: KindUpdate, Path: p.String(), Fields: map[string]string{"available": value}}
	respB, err := d.net.Call(to, msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := DecodeMessage(respB)
	if e := resp.AsError(); e != nil {
		t.Fatalf("update: %v", e)
	}
}

// awaitValue polls the site until a query for p returns the value, failing
// after two seconds — how a test waits out the asynchronous delta stream.
func awaitValue(t *testing.T, d *testDeployment, siteName string, p xmldb.IDPath, value string) {
	t.Helper()
	q := p.String()
	deadline := time.Now().Add(2 * time.Second)
	for {
		frag := d.query(t, siteName, q)
		got := extracted(t, frag, q, d.clock)
		if len(got) == 1 && strings.Contains(got[0], value) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("site %s never saw %q at %s; last answer %v", siteName, value, p, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicationStreamAndServe(t *testing.T) {
	d := deployCfg(t, false, transport.SimConfig{}, func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	rep := addReplicaSite(t, d, "replica-1", func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})

	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	owner := d.sites[ownerName]
	if err := owner.AddReadReplica(nbPath, "replica-1", 30); err != nil {
		t.Fatal(err)
	}

	// The replica is registered next to the owner's DNS entry — and under
	// every transferred name, so resolvers that match a deeper name (a
	// block's own entry) still see the replica set.
	reps := d.registry.LookupReplicas(naming.DNSName(nbPath, workload.Service))
	if len(reps) != 1 || reps[0].Site != "replica-1" || reps[0].MaxLagSec != 30 {
		t.Fatalf("registered replicas = %+v", reps)
	}
	if reps := d.registry.LookupReplicas(naming.DNSName(d.db.BlockPath(0, 0, 1), workload.Service)); len(reps) != 1 {
		t.Fatalf("block-level replica registration missing: %+v", reps)
	}

	// The seed alone answers queries over the replicated subtree with the
	// same bytes the authoritative evaluation produces, without asking the
	// owner: the replica holds status-complete copies.
	q := d.db.BlockQuery(0, 0, 1)
	want := centralAnswer(t, d, q)
	got := extracted(t, d.query(t, "replica-1", q), q, d.clock)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replica answer = %v, want %v", got, want)
	}
	if asked := rep.Metrics.Subqueries.Value(); asked != 0 {
		t.Fatalf("replica issued %d subqueries for replicated data", asked)
	}

	// A committed owner update streams to the replica within a few flush
	// intervals.
	target := spaceUnder(t, d, nbPath)
	sendUpdate(t, d, ownerName, target, "replicated-value")
	awaitValue(t, d, "replica-1", target, "replicated-value")

	if n := rep.Metrics.ReplicaBatchesApplied.Value(); n == 0 {
		t.Fatal("no replication batches applied")
	}
	if n := owner.Metrics.ReplicaBatchesSent.Value(); n == 0 {
		t.Fatal("no replication batches sent")
	}
	if w, ok := rep.ReplicaWatermark(nbPath); !ok || w <= 0 {
		t.Fatalf("replica watermark = %v, %v", w, ok)
	}

	// Roles and lag surface in the debug views.
	if role := rep.Debug().Role; role != "replica" {
		t.Fatalf("replica role = %q", role)
	}
	od := owner.Debug()
	if od.Role != "owner" || len(od.ReplicatesTo) != 1 {
		t.Fatalf("owner debug = role %q, replicatesTo %v", od.Role, od.ReplicatesTo)
	}
	if _, ok := rep.Debug().ReplicaOf[nbPath.Key()]; !ok {
		t.Fatalf("replica debug missing subscription: %v", rep.Debug().ReplicaOf)
	}

	// Removing the replica deregisters it and stops the stream.
	owner.RemoveReadReplica(nbPath, "replica-1")
	if reps := d.registry.LookupReplicas(naming.DNSName(nbPath, workload.Service)); len(reps) != 0 {
		t.Fatalf("replica still registered after removal: %+v", reps)
	}
	if reps := d.registry.LookupReplicas(naming.DNSName(d.db.BlockPath(0, 0, 1), workload.Service)); len(reps) != 0 {
		t.Fatalf("block-level registration survived removal: %+v", reps)
	}
	if to := owner.Debug().ReplicatesTo; len(to) != 0 {
		t.Fatalf("stream still live after removal: %v", to)
	}
}

func TestReplicaPromotion(t *testing.T) {
	d := deployCfg(t, false, transport.SimConfig{}, func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	rep := addReplicaSite(t, d, "replica-1", func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	if err := d.sites[ownerName].AddReadReplica(nbPath, "replica-1", 30); err != nil {
		t.Fatal(err)
	}
	target := spaceUnder(t, d, nbPath)
	sendUpdate(t, d, ownerName, target, "pre-failover")
	awaitValue(t, d, "replica-1", target, "pre-failover")

	// The owner dies; the surviving replica promotes itself.
	d.net.Partition(ownerName)
	if err := rep.Promote(nbPath); err != nil {
		t.Fatal(err)
	}
	if !rep.Owns(nbPath) || !rep.Owns(target) {
		t.Fatal("promoted replica does not own the transferred nodes")
	}
	if role := rep.Debug().Role; role != "owner" {
		t.Fatalf("promoted role = %q", role)
	}
	// The registry repointed every transferred name, and the replica set no
	// longer lists the promoted site.
	fresh := naming.NewClient(d.registry, workload.Service, 0, nil)
	if owner, _ := fresh.ResolveExact(target); owner != "replica-1" {
		t.Fatalf("registry owner of %s = %q after promotion", target, owner)
	}
	if reps := d.registry.LookupReplicas(naming.DNSName(nbPath, workload.Service)); len(reps) != 0 {
		t.Fatalf("promoted site still registered as replica: %+v", reps)
	}
	// Updates and queries continue against the new owner: no data lost, no
	// answer behind what the replica already served.
	sendUpdate(t, d, "replica-1", target, "post-failover")
	awaitValue(t, d, "replica-1", target, "post-failover")
	if n := rep.Metrics.Updates.Value(); n != 1 {
		t.Fatalf("promoted site applied %d updates, want 1", n)
	}
	// A second promotion attempt fails: the subscription is gone.
	if err := rep.Promote(nbPath); err == nil {
		t.Fatal("double promotion should fail")
	}
}

// TestReplicationRetryAfterLostAck covers the applied-but-unacked batch:
// a proxy in front of the replica delivers every message but swallows
// delta-batch acks while "lossy" mode is on, so the owner keeps retrying
// batches the replica has already applied. Commits made between the lost
// ack and the successful retry ride the retried batch — which carries
// different content than the original transmission — and must not be
// discarded as a duplicate, or they would never replicate at all.
func TestReplicationRetryAfterLostAck(t *testing.T) {
	d := deployCfg(t, false, transport.SimConfig{}, func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	addReplicaSite(t, d, "replica-1", func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	owner := d.sites[ownerName]

	// Every delta batch reaches the replica, but acks are swallowed until
	// a batch carries the second update's value — so the only batch the
	// owner ever sees acknowledged is a retry whose content differs from
	// the transmission the replica first applied. The replica must not
	// discard that retry as a duplicate. A drop counter pins that the
	// lossy phase actually exercised retries.
	var drops atomic.Int64
	if err := d.net.Register("lossy", func(ctx context.Context, payload []byte) ([]byte, error) {
		resp, err := d.net.CallContext(ctx, "replica-1", payload)
		if err != nil {
			return nil, err
		}
		if m, derr := DecodeMessage(payload); derr == nil &&
			m.Kind == KindReplicate && m.Fragment != "" &&
			!strings.Contains(m.Fragment, "rides-the-retry") {
			drops.Add(1)
			return nil, errors.New("ack lost")
		}
		return resp, nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := owner.AddReadReplica(nbPath, "lossy", 30); err != nil {
		t.Fatal(err)
	}
	target := spaceUnder(t, d, nbPath)
	sendUpdate(t, d, ownerName, target, "acked-nowhere")
	// The replica applies the batch even though the owner never learns.
	awaitValue(t, d, "replica-1", target, "acked-nowhere")

	// A second commit lands while the first batch is still unacknowledged;
	// from here on the retried batch carries both and its ack goes through.
	var target2 xmldb.IDPath
	for _, p := range d.db.SpacePaths {
		if strings.HasPrefix(p.Key(), nbPath.Key()+"/") && p.Key() != target.Key() {
			target2 = p
			break
		}
	}
	if target2 == nil {
		t.Fatal("need a second space under the neighborhood")
	}
	sendUpdate(t, d, ownerName, target2, "rides-the-retry")
	awaitValue(t, d, "replica-1", target2, "rides-the-retry")
	if drops.Load() == 0 {
		t.Fatal("lossy phase dropped no acks; the retry path was not exercised")
	}
}

// TestReplicationPartitionedReplicaDoesNotStallOthers pins the concurrent
// flush: a black-holed replica's stream (deliberately first in flush
// order) must not delay the healthy replica's batches, whose delivery
// here would otherwise wait out the dead stream's full call timeout and
// retries.
func TestReplicationPartitionedReplicaDoesNotStallOthers(t *testing.T) {
	mut := func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
		c.CallTimeout = time.Second
	}
	d := deployCfg(t, false, transport.SimConfig{}, mut)
	addReplicaSite(t, d, "replica-1", mut)
	addReplicaSite(t, d, "replica-2", mut)
	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	owner := d.sites[ownerName]
	if err := owner.AddReadReplica(nbPath, "replica-2", 30); err != nil {
		t.Fatal(err)
	}
	if err := owner.AddReadReplica(nbPath, "replica-1", 30); err != nil {
		t.Fatal(err)
	}
	d.net.Partition("replica-2")
	target := spaceUnder(t, d, nbPath)
	sendUpdate(t, d, ownerName, target, "past-partition")
	awaitValue(t, d, "replica-1", target, "past-partition")
	d.net.Heal("replica-2")
}

// TestRemoveReadReplicaAfterDelegation pins deregistration to the names
// AddReadReplica actually registered: ownership under the root changes
// while the stream is live, and removal must still clear every replica
// entry, not just the ones under the current owned set.
func TestRemoveReadReplicaAfterDelegation(t *testing.T) {
	d := deployCfg(t, false, transport.SimConfig{}, func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	addReplicaSite(t, d, "replica-1", func(c *Config) {
		c.ReplicaFlushInterval = 2 * time.Millisecond
	})
	nbPath := d.db.NeighborhoodPath(0, 0)
	ownerName := d.assign.OwnerOf(nbPath)
	owner := d.sites[ownerName]
	if err := owner.AddReadReplica(nbPath, "replica-1", 30); err != nil {
		t.Fatal(err)
	}
	blockPath := d.db.BlockPath(0, 0, 1)
	if reps := d.registry.LookupReplicas(naming.DNSName(blockPath, workload.Service)); len(reps) != 1 {
		t.Fatalf("block-level replica registration missing: %+v", reps)
	}
	// Ownership under the replicated root changes mid-stream.
	if err := owner.Delegate(blockPath, "root-site"); err != nil {
		t.Fatal(err)
	}
	owner.RemoveReadReplica(nbPath, "replica-1")
	for _, p := range append([]xmldb.IDPath{nbPath, blockPath}, d.db.SpacePaths...) {
		if !strings.HasPrefix(p.Key(), nbPath.Key()) {
			continue
		}
		if reps := d.registry.LookupReplicas(naming.DNSName(p, workload.Service)); len(reps) != 0 {
			t.Fatalf("replica entry for %s survived removal: %+v", p, reps)
		}
	}
}

func TestReplicateRejectsUnknownSubscription(t *testing.T) {
	d := deploy(t, false)
	msg := &Message{Kind: KindReplicate, Path: d.db.NeighborhoodPath(0, 0).String(), Seq: 1, ClockSec: 1}
	respB, err := d.net.Call("root-site", msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := DecodeMessage(respB)
	if resp.AsError() == nil {
		t.Fatal("replicate without a subscription should fail")
	}
}

// TestSchemaChangeReachesReplica: a committed schema change on a replicated
// subtree reaches the read replica like any other commit. For each of the six
// ops, whatever the op needs to exist is set up before the replica is seeded;
// after the op the replica's answer for the block must equal the owner's
// within a few flush intervals, from its own copy (no subquery). The changed
// node is queued on the stream for every op; add-idable also queues the new
// child, or the replica would hold only its stub and have to ask for it.
func TestSchemaChangeReachesReplica(t *testing.T) {
	extra := map[string]string{"name": "parkingSpace", "id": "extra"}
	for _, tc := range []struct {
		op          SchemaOp
		onBlock     bool // the op targets the block, not one of its spaces
		pre         SchemaOp
		preArg, arg map[string]string
	}{
		{op: OpSetAttrs, arg: map[string]string{"meter": "broken"}},
		{op: OpDelAttrs, pre: OpSetAttrs, preArg: map[string]string{"meter": "broken"}, arg: map[string]string{"meter": ""}},
		{op: OpAddChild, arg: map[string]string{"name": "note", "text": "swept"}},
		{op: OpDelChild, pre: OpAddChild, preArg: map[string]string{"name": "note", "text": "swept"}, arg: map[string]string{"name": "note"}},
		{op: OpAddIDable, onBlock: true, arg: extra},
		{op: OpDelIDable, onBlock: true, pre: OpAddIDable, preArg: extra, arg: extra},
	} {
		t.Run(string(tc.op), func(t *testing.T) {
			flush := func(c *Config) { c.ReplicaFlushInterval = 2 * time.Millisecond }
			d := deployCfg(t, false, transport.SimConfig{}, flush)
			rep := addReplicaSite(t, d, "replica-1", flush)
			nbPath := d.db.NeighborhoodPath(0, 0)
			owner := d.sites[d.assign.OwnerOf(nbPath)]
			space := spaceUnder(t, d, nbPath)
			block := space.Parent()
			target := space
			if tc.onBlock {
				target = block
			}
			if tc.pre != "" {
				if err := owner.SchemaChange(tc.pre, target, tc.preArg); err != nil {
					t.Fatal(err)
				}
			}
			if err := owner.AddReadReplica(nbPath, "replica-1", 30); err != nil {
				t.Fatal(err)
			}
			if err := owner.SchemaChange(tc.op, target, tc.arg); err != nil {
				t.Fatal(err)
			}

			q := block.String()
			want := strings.Join(extracted(t, d.query(t, owner.Name(), q), q, d.clock), "|")
			deadline := time.Now().Add(2 * time.Second)
			for {
				got := strings.Join(extracted(t, d.query(t, "replica-1", q), q, d.clock), "|")
				if got == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica never converged on the owner's answer\n got %s\nwant %s", got, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if asked := rep.Metrics.Subqueries.Value(); asked != 0 {
				t.Fatalf("replica issued %d subqueries for replicated data", asked)
			}
		})
	}
}
