package site

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/qeg"
	"irisnet/internal/xmldb"
)

// Owner-push replication with read scale-out (DESIGN.md §15).
//
// An owner streams its committed changes for a subtree to N read
// replicas. The stream reuses the machinery the system already has:
//
//   - deltas are C1/C2 wire fragments (fragment.BuildDelta over the
//     committed COW snapshot), applied on the replica with the same
//     MergeFragment path every cached answer uses, so redelivery and
//     reordering are harmless (stale-timestamp guard) and replica data is
//     status-complete — the QEG freshness predicates treat it exactly
//     like any cached copy;
//   - the seed is fragment.BuildSync over the subtree: the owner mirrors
//     everything it knows at or below the root — local information merged
//     as complete (cached, never owned) plus local ID information for
//     delegated children, so the replica's picture of which children
//     exist is as honest as the owner's;
//   - promotion after an owner failure is handleTake driven locally: flip
//     the transferred statuses to owned, extend the ownership table,
//     repoint the registry.
//
// Watermark protocol: every batch (and every idle heartbeat) carries the
// owner commit clock read under the owner's writer mutex after the batch's
// pending set and snapshot were captured under that same mutex. Every
// commit, of whatever kind, takes its timestamp and queues the nodes it
// touched on the covering streams inside the wmu hold that publishes it
// (commit.go), so a batch with watermark W provably covers every commit
// stamped before W — and a replica whose last applied batch carried W can
// answer any freshness predicate that tolerates (now - W) seconds of
// staleness without consulting the owner. On the replica a batch is one
// commit too: its merge and its mark publish, and are logged, together.
//
// Retries: every transmission attempt carries a fresh sequence number,
// and the replica merges any non-empty fragment it receives regardless
// of sequence (merges are idempotent; seq and watermark only advance
// monotonically). This matters when a batch is applied but its ack is
// lost: the retry re-reads a newer snapshot and so carries different
// content — commits made since the first attempt — and must not be
// mistaken for a duplicate of the batch the replica already holds, or
// those commits would slip under the advancing watermark unreplicated.
//
// Routing: replicas are registered in the naming registry next to the
// owner entry (naming.ReplicaStore) with their configured lag bound;
// naming.Client.ResolveRead sends freshness-tolerant queries to a
// rendezvous-hashed replica and everything else — updates, strict
// queries, refresh subqueries — to the owner. Sites always resolve
// subquery targets to the owner (fetchSubquery), so a replica whose data
// is too stale for a predicate refreshes from the owner and a
// replica-to-replica forwarding loop cannot form.

// DefaultReplicaFlushInterval is the owner-side flush cadence: committed
// changes batch for at most this long before shipping, and an idle stream
// heartbeats its watermark at this period. It bounds steady-state
// replication lag at roughly one interval plus one network hop.
const DefaultReplicaFlushInterval = 10 * time.Millisecond

// replStream is the owner-side state of one root→replica delta stream.
// The pending set and the syncing/inflight flags are guarded by the
// site's wmu (they are touched inside the commit path); seq only by the
// single in-flight sender — flush marks a stream inflight before handing
// it to a send goroutine, so sends on one stream never overlap or
// reorder; regNames is written under wmu when the replica is registered.
type replStream struct {
	root     xmldb.IDPath
	rootKey  string
	dest     string
	maxLag   float64
	syncing  bool                    // seed not yet acknowledged; flusher skips
	inflight bool                    // a send goroutine owns this stream; flusher skips
	pending  map[string]xmldb.IDPath // paths committed since the last flush
	seq      uint64                  // sequence number of the last transmission attempt
	regNames []string                // registry names this replica was registered under
}

// replicator is the owner-side replication engine: the stream table and
// the flusher goroutine that turns pending commit paths into delta
// batches. The stream list is guarded by mu, always acquired after wmu
// when both are held.
type replicator struct {
	s       *Site
	mu      sync.Mutex
	streams []*replStream
	started bool
	stopped bool
	stop    chan struct{}
	// ctx cancels in-flight sends on close; wg tracks the flusher and every
	// send goroutine so Site.Stop can wait for a leak-free shutdown.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// replicaSub is the replica-side state of one subscription: which subtree
// this site mirrors, from whom, and how far the stream has advanced.
// Guarded by Site.subMu.
type replicaSub struct {
	root       xmldb.IDPath
	owner      string
	ownedPaths []xmldb.IDPath // the owner's ownership set under root, claimed on promotion
	seq        uint64
	ownerClock float64 // watermark: owner commit clock fully applied
}

func newReplicator(s *Site) *replicator {
	ctx, cancel := context.WithCancel(context.Background())
	return &replicator{s: s, stop: make(chan struct{}), ctx: ctx, cancel: cancel}
}

// observeLocked records a committed path on every stream whose root covers
// it. Called from the commit point (commitLocked) with wmu held, for every
// node a commit of any kind touched.
func (r *replicator) observeLocked(p xmldb.IDPath) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.streams) == 0 {
		return
	}
	key := p.Key()
	for _, st := range r.streams {
		if keyUnder(key, st.rootKey) {
			st.pending[key] = p
		}
	}
}

// addStreamLocked registers a new stream in syncing state. Callers hold wmu.
func (r *replicator) addStreamLocked(root xmldb.IDPath, dest string, maxLag float64) (*replStream, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := root.Key()
	for _, st := range r.streams {
		if st.rootKey == key && st.dest == dest {
			return nil, fmt.Errorf("site %s: %s already replicates to %s", r.s.cfg.Name, root, dest)
		}
	}
	st := &replStream{root: root, rootKey: key, dest: dest, maxLag: maxLag,
		syncing: true, pending: map[string]xmldb.IDPath{}}
	r.streams = append(r.streams, st)
	return st, nil
}

// removeStream drops a stream and returns it (nil when absent). Takes wmu
// first to respect the lock order with the commit path.
func (r *replicator) removeStream(root xmldb.IDPath, dest string) *replStream {
	r.s.wmu.Lock()
	defer r.s.wmu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	key := root.Key()
	for i, st := range r.streams {
		if st.rootKey == key && st.dest == dest {
			r.streams = append(r.streams[:i], r.streams[i+1:]...)
			return st
		}
	}
	return nil
}

// start launches the flusher once the first stream goes live.
func (r *replicator) start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.stopped {
		return
	}
	r.started = true
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.run()
	}()
}

// close stops the flusher and cancels in-flight sends; further batches
// never ship.
func (r *replicator) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	close(r.stop)
	r.cancel()
}

// wait blocks until the flusher and every send goroutine have exited.
func (r *replicator) wait() { r.wg.Wait() }

func (r *replicator) run() {
	interval := r.s.cfg.ReplicaFlushInterval
	if interval <= 0 {
		interval = DefaultReplicaFlushInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.flush()
		}
	}
}

// flush captures one consistent (pending, snapshot, watermark) triple per
// live stream under wmu, then builds and ships the delta batches outside
// the lock — one goroutine per stream, so a dead or slow replica delays
// only its own stream's batches and heartbeats, never the other streams'
// watermarks. A stream with a send still in flight is skipped (its
// pending set keeps accumulating); a failed send re-queues its paths for
// the next tick. The re-encoded retry then reads a newer snapshot, which
// is safe because replica merges are monotone.
func (r *replicator) flush() {
	r.mu.Lock()
	streams := append([]*replStream(nil), r.streams...)
	r.mu.Unlock()
	if len(streams) == 0 {
		return
	}
	s := r.s
	type batch struct {
		st    *replStream
		paths []xmldb.IDPath
	}
	s.wmu.Lock()
	snap := s.state.Load().store
	clock := s.cfg.Clock()
	var out []batch
	for _, st := range streams {
		if st.syncing || st.inflight {
			continue
		}
		var paths []xmldb.IDPath
		if len(st.pending) > 0 {
			paths = make([]xmldb.IDPath, 0, len(st.pending))
			for _, p := range st.pending {
				paths = append(paths, p)
			}
			st.pending = map[string]xmldb.IDPath{}
		}
		st.inflight = true
		out = append(out, batch{st, paths})
	}
	s.wmu.Unlock()
	for _, b := range out {
		r.wg.Add(1)
		go func(b batch) {
			defer r.wg.Done()
			err := r.send(b.st, snap, clock, b.paths)
			s.wmu.Lock()
			b.st.inflight = false
			if err != nil {
				for _, p := range b.paths {
					b.st.pending[p.Key()] = p
				}
			}
			s.wmu.Unlock()
			if err != nil {
				s.log.LogAttrs(context.Background(), slog.LevelWarn, "replication batch failed",
					slog.String("root", b.st.rootKey), slog.String("to", b.st.dest),
					slog.Int("paths", len(b.paths)), slog.String("err", err.Error()))
			}
		}(b)
	}
}

// send encodes one batch (or a bare watermark heartbeat when paths is
// empty) and ships it to the stream's replica. Every transmission attempt
// gets a fresh sequence number — a retry after a lost ack reads a newer
// snapshot and so may carry content the first attempt did not, so it must
// never look like a duplicate of a batch the replica already applied.
func (r *replicator) send(st *replStream, snap *fragment.Store, clock float64, paths []xmldb.IDPath) error {
	s := r.s
	var wire string
	if len(paths) > 0 {
		sort.Slice(paths, func(i, j int) bool { return paths[i].Key() < paths[j].Key() })
		delta, err := fragment.BuildDelta(snap, paths)
		if err != nil {
			return err
		}
		s.cpu.Do(func() { wire = delta.Root.StringSized(delta.Size()) })
	}
	st.seq++
	msg := &Message{Kind: KindReplicate, Path: st.root.String(), Fragment: wire,
		Seq: st.seq, ClockSec: clock}
	respB, err := s.call.Call(r.ctx, st.dest, msg.Encode())
	if err != nil {
		return err
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		return err
	}
	if e := resp.AsError(); e != nil {
		return e
	}
	s.Metrics.ReplicaBatchesSent.Inc()
	return nil
}

// AddReadReplica seeds the named site with this owner's data under root
// and starts streaming committed deltas to it, registering the replica
// (with its lag bound) in the naming registry so freshness-tolerant
// queries can route there. The stream is registered before the seed
// snapshot is read, so commits racing the seed are captured as pending
// deltas rather than lost.
func (s *Site) AddReadReplica(root xmldb.IDPath, dest string, maxLagSec float64) error {
	if dest == s.cfg.Name {
		return fmt.Errorf("site %s: cannot replicate %s to itself", s.cfg.Name, root)
	}
	s.wmu.Lock()
	st := s.state.Load()
	if !st.owned[root.Key()] {
		s.wmu.Unlock()
		return fmt.Errorf("site %s: does not own %s", s.cfg.Name, root)
	}
	transfer := ownedUnder(st.owned, root)
	snap := st.store
	clock := s.cfg.Clock()
	stream, err := s.repl.addStreamLocked(root, dest, maxLagSec)
	s.wmu.Unlock()
	if err != nil {
		return err
	}

	seed, err := fragment.BuildSync(snap, root)
	if err != nil {
		s.repl.removeStream(root, dest)
		return err
	}
	var wire string
	s.cpu.Do(func() { wire = seed.Root.StringSized(seed.Size()) })
	msg := &Message{Kind: KindSync, Path: root.String(), Fragment: wire,
		Paths: pathStrings(transfer), NewOwner: s.cfg.Name, ClockSec: clock}
	respB, err := s.call.Call(context.Background(), dest, msg.Encode())
	if err == nil {
		var resp *Message
		if resp, err = DecodeMessage(respB); err == nil {
			err = resp.AsError()
		}
	}
	if err != nil {
		s.repl.removeStream(root, dest)
		return fmt.Errorf("site %s: seeding replica %s for %s: %w", s.cfg.Name, dest, root, err)
	}

	if rs, ok := s.cfg.Registry.(naming.ReplicaStore); ok {
		// Register the replica under every transferred name, mirroring the
		// owner's per-name registration: resolvers match the deepest name
		// (e.g. a block's own entry), so the replica set must live at each
		// name the stream actually covers. Fragments delegated to other
		// sites are not in the transfer set and keep owner-only routing.
		// The stream remembers the exact registered names so removal
		// deregisters precisely this set even if ownership under root has
		// changed by then.
		rep := naming.ReplicaInfo{Site: dest, MaxLagSec: maxLagSec}
		names := make([]string, len(transfer))
		for i, p := range transfer {
			names[i] = naming.DNSName(p, s.cfg.Service)
			rs.AddReplica(names[i], rep)
		}
		stream.regNames = names
	}
	s.wmu.Lock()
	stream.syncing = false
	s.wmu.Unlock()
	s.repl.start()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "read replica added",
		slog.String("root", root.String()), slog.String("to", dest),
		slog.Int("nodes", len(transfer)), slog.Float64("max_lag_sec", maxLagSec))
	return nil
}

// RemoveReadReplica stops the delta stream to dest and deregisters the
// replica from the naming registry — exactly the names AddReadReplica
// registered, not the current owned set under root, which may have
// shrunk or grown through delegation since the stream started.
func (s *Site) RemoveReadReplica(root xmldb.IDPath, dest string) {
	st := s.repl.removeStream(root, dest)
	if st == nil {
		return
	}
	if rs, ok := s.cfg.Registry.(naming.ReplicaStore); ok {
		for _, name := range st.regNames {
			rs.RemoveReplica(name, dest)
		}
	}
}

// handleSync installs a replication seed: merge the owner's transfer
// fragment as cached data and record the subscription at the seed's
// watermark.
func (s *Site) handleSync(msg *Message) *Message {
	root, err := xmldb.ParseIDPath(msg.Path)
	if err != nil {
		return errorMessage(err)
	}
	frag, err := xmldb.ParseString(msg.Fragment)
	if err != nil {
		return errorMessage(err)
	}
	paths, err := parsePaths(msg.Paths)
	if err != nil {
		return errorMessage(fmt.Errorf("site %s: sync: %w", s.cfg.Name, err))
	}
	var lsn uint64
	s.cpu.Do(func() {
		lsn, err = s.commit(walOp{Op: opSync, Frag: msg.Fragment, Owner: msg.NewOwner,
			Paths: msg.Paths, Clock: msg.ClockSec, path: root, frag: frag, paths: paths})
	})
	if err != nil {
		return errorMessage(fmt.Errorf("site %s: merging replica seed: %w", s.cfg.Name, err))
	}
	// The owner treats the seed as applied once acked; make it durable first.
	s.walWait(lsn)
	s.Metrics.ReplicaSyncs.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "replica seeded",
		slog.String("root", msg.Path), slog.String("owner", msg.NewOwner),
		slog.Int("nodes", len(paths)))
	return &Message{Kind: KindOK}
}

// handleReplicate applies one delta batch (or watermark heartbeat) from
// the owner's stream as one commit: the merge, when the batch carries a
// fragment, and the watermark mark. Any non-empty fragment is merged
// regardless of its sequence number — merges are idempotent and monotone, and
// a retried batch may carry commits its first (applied-but-unacked)
// transmission did not, so a seq-based duplicate drop would lose them. The
// mark is applied under the same wmu hold and fails when the subscription is
// gone, which abandons the merge with it: a batch that lost the race with
// Promote cannot put old-owner data into the just-promoted owner's store.
func (s *Site) handleReplicate(msg *Message) *Message {
	root, err := xmldb.ParseIDPath(msg.Path)
	if err != nil {
		return errorMessage(err)
	}
	cmds := make([]walOp, 0, 2)
	if msg.Fragment != "" {
		frag, perr := xmldb.ParseString(msg.Fragment)
		if perr != nil {
			return errorMessage(perr)
		}
		cmds = append(cmds, walOp{Op: opMerge, Frag: msg.Fragment, frag: frag})
	}
	cmds = append(cmds, walOp{Op: opMark, Seq: msg.Seq, Clock: msg.ClockSec, path: root})
	var lsn uint64
	apply := func() { lsn, err = s.commit(cmds...) }
	if len(cmds) > 1 {
		s.cpu.Do(apply)
	} else {
		apply() // a heartbeat does not wait for a CPU slot
	}
	if err != nil {
		return errorMessage(fmt.Errorf("site %s: applying replication batch: %w", s.cfg.Name, err))
	}
	// The owner advances its stream state on this ack; make the batch and
	// watermark durable first, so a promoted or restarted site never regresses
	// Seq below what it acknowledged.
	s.walWait(lsn)
	s.Metrics.ReplicaBatchesApplied.Inc()
	return &Message{Kind: KindOK}
}

// Promote upgrades this site's replica copy of root to ownership after
// the owner failed: the statuses the seed transferred flip to owned, the
// ownership table extends, and the registry repoints every transferred
// name here — the handleTake sequence driven locally from already-applied
// replica state. The harness promotes the replica with the highest
// watermark, which (with in-order per-stream apply) guarantees the
// promoted state covers everything any replica ever served.
func (s *Site) Promote(root xmldb.IDPath) error {
	s.subMu.Lock()
	sub := s.subs[root.Key()]
	s.subMu.Unlock()
	if sub == nil {
		return fmt.Errorf("site %s: not a replica of %s", s.cfg.Name, root)
	}
	lsn, err := s.commit(walOp{Op: opPromote, path: root, paths: sub.ownedPaths})
	if err != nil {
		return err
	}
	// The registry repoint below makes the promotion visible cluster-wide;
	// the new ownership must survive a crash from that moment on.
	s.walWait(lsn)
	if s.cfg.Registry != nil {
		for _, p := range sub.ownedPaths {
			s.cfg.Registry.Set(naming.DNSName(p, s.cfg.Service), s.cfg.Name)
		}
		if rs, ok := s.cfg.Registry.(naming.ReplicaStore); ok {
			for _, p := range sub.ownedPaths {
				rs.RemoveReplica(naming.DNSName(p, s.cfg.Service), s.cfg.Name)
			}
		}
	}
	if s.cfg.DNS != nil {
		// This site's own resolver cache may still point refresh subqueries
		// at the dead owner.
		for _, p := range sub.ownedPaths {
			s.cfg.DNS.Invalidate(p)
		}
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "replica promoted to owner",
		slog.String("root", root.String()), slog.String("old_owner", sub.owner),
		slog.Int("nodes", len(sub.ownedPaths)), slog.Float64("watermark", sub.ownerClock))
	return nil
}

// ReplicaWatermark returns the owner commit clock this site has fully
// applied for its subscription at root; ok is false when not subscribed.
func (s *Site) ReplicaWatermark(root xmldb.IDPath) (float64, bool) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	sub := s.subs[root.Key()]
	if sub == nil {
		return 0, false
	}
	return sub.ownerClock, true
}

// ReplicaLag returns the maximum replication lag in seconds across this
// site's subscriptions (now minus watermark, on the shared cluster
// clock); ok is false when the site replicates nothing.
func (s *Site) ReplicaLag() (float64, bool) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if len(s.subs) == 0 {
		return 0, false
	}
	now := s.cfg.Clock()
	lag := 0.0
	for _, sub := range s.subs {
		if l := now - sub.ownerClock; l > lag {
			lag = l
		}
	}
	return lag, true
}

// replicaLagForQuery returns the replication lag observable in an answer
// this site serves for the query: the maximum lag over subscriptions
// whose root overlaps the query's LCA. It feeds the answer's freshness
// provenance, making "how far behind the owner was this answer" a
// first-class ledger fact.
func (s *Site) replicaLagForQuery(query string) (float64, bool) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if len(s.subs) == 0 {
		return 0, false
	}
	lca, err := qeg.LCAPath(query)
	if err != nil {
		return 0, false
	}
	lcaKey := lca.Key()
	now := s.cfg.Clock()
	lag, found := 0.0, false
	for _, sub := range s.subs {
		if rk := sub.root.Key(); keyUnder(lcaKey, rk) || keyUnder(rk, lcaKey) {
			found = true
			if l := now - sub.ownerClock; l > lag {
				lag = l
			}
		}
	}
	return lag, found
}

// replicaDebug summarizes replication for the /debug views: the role
// string plus per-root lag (replica side) and per-root destinations
// (owner side).
func (s *Site) replicaDebug() (role string, replicaOf map[string]float64, replicatesTo map[string][]string) {
	s.subMu.Lock()
	if len(s.subs) > 0 {
		replicaOf = make(map[string]float64, len(s.subs))
		now := s.cfg.Clock()
		for k, sub := range s.subs {
			replicaOf[k] = now - sub.ownerClock
		}
	}
	s.subMu.Unlock()
	s.repl.mu.Lock()
	for _, st := range s.repl.streams {
		if replicatesTo == nil {
			replicatesTo = map[string][]string{}
		}
		replicatesTo[st.rootKey] = append(replicatesTo[st.rootKey], st.dest)
	}
	s.repl.mu.Unlock()
	for _, dests := range replicatesTo {
		sort.Strings(dests)
	}
	switch owns := s.ownedCount() > 0; {
	case owns && replicaOf != nil:
		role = "owner+replica"
	case replicaOf != nil:
		role = "replica"
	case owns:
		role = "owner"
	}
	return role, replicaOf, replicatesTo
}
