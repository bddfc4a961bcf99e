package site

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/wal"
	"irisnet/internal/xmldb"
)

// Per-site durability (DESIGN.md §16). When Config.DataDir is set, every
// committed copy-on-write transaction appends one CRC-framed record to a
// write-ahead log before (or as) it publishes, and a background loop
// periodically checkpoints the current sealed snapshot — the store XML plus
// the ownership/forwarding tables, replica subscriptions with their
// watermarks, and the cache policy's residency metadata — then truncates
// the log prefix the checkpoint covers. Restart recovers by loading the
// newest parseable checkpoint and replaying the log tail as ordinary COW
// transactions, so a recovered site is byte-identical to the state whose
// acked commits reached the log, rejoins with a warm cache (trimmed to
// CacheBudgetBytes, coldest first), and re-registers its recovered
// ownership with naming.
//
// Consistency invariant: a checkpoint captures its state under the writer
// mutex immediately after rotating the log, so every record with LSN <= the
// rotation boundary is reflected in the captured state (commit sites append
// and publish under one wmu hold; watermark marks append under subMu after
// the advance they record, and watermarks are monotone).

// DefaultCheckpointInterval is the checkpoint cadence when
// Config.CheckpointInterval is zero and a DataDir is set.
const DefaultCheckpointInterval = 10 * time.Second

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".json"
	// ckptKeep is how many checkpoints survive pruning: the newest plus one
	// fallback in case a crash tears the newest mid-write.
	ckptKeep = 2
)

// walOp is one mutation of a committed transaction. A walRecord groups the
// ops that committed together (e.g. a cache merge plus the evictions it
// forced) so replay applies them as one COW transaction.
type walOp struct {
	Op       string            `json:"op"`
	Path     string            `json:"path,omitempty"`
	Fields   map[string]string `json:"fields,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	TS       float64           `json:"ts,omitempty"`
	Frag     string            `json:"frag,omitempty"`
	Paths    []string          `json:"paths,omitempty"`
	Owner    string            `json:"owner,omitempty"`
	SchemaOp string            `json:"schemaOp,omitempty"`
	Seq      uint64            `json:"seq,omitempty"`
	Clock    float64           `json:"clock,omitempty"`
	// Cached marks a merge that entered through the caching path, so replay
	// re-registers its units with the residency policy at Clock.
	Cached bool `json:"cached,omitempty"`
}

// Op values. Each names the commit site that wrote it.
const (
	opUpdate   = "update"   // applyUpdateLocked: Path, Fields, Attrs, TS
	opMerge    = "merge"    // mergeCache / handleReplicate: Frag, Clock, Cached
	opEvict    = "evict"    // budget eviction: Paths (unit keys)
	opSync     = "sync"     // handleSync: Path (root), Frag, Owner, Paths, Clock
	opMark     = "mark"     // handleReplicate watermark: Path (root), Seq, Clock
	opTake     = "take"     // handleTake: Frag, Paths
	opDelegate = "delegate" // Delegate: Paths, Owner
	opPromote  = "promote"  // Promote: Path (root), Paths
	opSchema   = "schema"   // SchemaChange: SchemaOp, Path, Fields (args), TS
)

type walRecord struct {
	Ops []walOp `json:"ops"`
}

// ckptSub persists one replica subscription with its watermark, so a
// restarted replica (or a replica promoted after restart) does not regress
// Seq or serve at a stale watermark.
type ckptSub struct {
	Root       string   `json:"root"`
	Owner      string   `json:"owner"`
	OwnedPaths []string `json:"ownedPaths"`
	Seq        uint64   `json:"seq"`
	OwnerClock float64  `json:"ownerClock"`
}

// ckptUnit persists one cached unit's residency metadata, so the restarted
// budget policy evicts in the same coldest-first order it would have live.
type ckptUnit struct {
	Last    float64 `json:"last"`
	Fetched float64 `json:"fetched"`
}

type checkpointFile struct {
	// LSN is the rotation boundary: every WAL record <= LSN is reflected
	// in this checkpoint; recovery replays only records beyond it.
	LSN      uint64              `json:"lsn"`
	Clock    float64             `json:"clock"`
	Owned    []string            `json:"owned"`
	Migrated map[string]string   `json:"migrated,omitempty"`
	Subs     []ckptSub           `json:"subs,omitempty"`
	Cache    map[string]ckptUnit `json:"cache,omitempty"`
	// Store is the serialized document fragment (the same XML wire form
	// fragments travel in).
	Store string `json:"store"`
}

// durability is the per-site durability engine: the WAL, the checkpoint
// loop, and the recovery bookkeeping.
type durability struct {
	s   *Site
	dir string
	log *wal.Log

	// ckptMu serializes checkpoints (the ticker loop, recovery's initial
	// checkpoint, and the final one on Stop).
	ckptMu sync.Mutex

	stop       chan struct{}
	finishOnce sync.Once

	// recoveryBits holds math.Float64bits of the last recovery duration in
	// seconds (0 = cold start, nothing recovered).
	recoveryBits atomic.Uint64
}

// walAppend encodes one committed transaction and appends it to the WAL.
// Nil-safe: returns 0 when durability is off or the append fails (the
// failure is logged; the in-memory commit proceeds — availability over
// durability for a sick disk).
func (s *Site) walAppend(ops ...walOp) uint64 {
	if s.dur == nil {
		return 0
	}
	b, err := json.Marshal(walRecord{Ops: ops})
	if err != nil {
		s.log.Error("wal encode failed", slog.String("err", err.Error()))
		return 0
	}
	lsn, err := s.dur.log.Append(b)
	if err != nil {
		s.log.Error("wal append failed", slog.String("err", err.Error()))
		return 0
	}
	return lsn
}

// walWait blocks until the record at lsn is durable per the fsync policy.
// Acked writes call it after releasing the writer mutex, so group commit
// batches concurrent writers behind one fsync.
func (s *Site) walWait(lsn uint64) {
	if s.dur == nil || lsn == 0 {
		return
	}
	if err := s.dur.log.Sync(lsn); err != nil {
		s.log.Error("wal fsync failed", slog.String("err", err.Error()))
	}
}

// RecoverySeconds reports how long the last restart's recovery took (0
// when the site started cold or runs in-memory).
func (s *Site) RecoverySeconds() float64 {
	if s.dur == nil {
		return 0
	}
	return math.Float64frombits(s.dur.recoveryBits.Load())
}

// Recover is the durable replacement for Load: with no DataDir it is
// exactly Load; otherwise it opens the WAL, restores the newest parseable
// checkpoint (falling back to the partition store when none exists),
// replays the log tail, installs the recovered state with a warm cache
// trimmed to budget, re-registers recovered ownership with naming, and
// writes a fresh checkpoint. It reports whether state was recovered from
// disk (false on a cold start).
func (s *Site) Recover(store *fragment.Store, owned []xmldb.IDPath) (bool, error) {
	if s.cfg.DataDir == "" {
		s.Load(store, owned)
		return false, nil
	}
	t0 := time.Now()
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return false, err
	}
	log, err := wal.Open(s.cfg.DataDir, wal.Options{
		FsyncInterval: s.cfg.FsyncInterval,
		OnAppend: func(n int) {
			s.Metrics.WALAppends.Inc()
			s.Metrics.WALBytes.Add(int64(n))
		},
		OnFsync: s.Metrics.WALFsyncs.Inc,
	})
	if err != nil {
		return false, fmt.Errorf("site %s: opening wal: %w", s.cfg.Name, err)
	}
	d := &durability{s: s, dir: s.cfg.DataDir, log: log, stop: make(chan struct{})}

	cf := readNewestCheckpoint(s.cfg.DataDir, s.log)
	if cf == nil && log.LastLSN() == 0 {
		// Cold start: nothing on disk. Load the partition state and lay
		// down the first checkpoint so the next restart is warm.
		s.Load(store, owned)
		s.dur = d
		if err := d.checkpoint(); err != nil {
			return false, fmt.Errorf("site %s: initial checkpoint: %w", s.cfg.Name, err)
		}
		return false, nil
	}

	rec := newRecoveryState(s, cf, store, owned)
	replayed := 0
	err = log.Replay(rec.from, func(lsn uint64, payload []byte) error {
		var r walRecord
		if uerr := json.Unmarshal(payload, &r); uerr != nil {
			s.log.Warn("wal replay: undecodable record skipped",
				slog.Uint64("lsn", lsn), slog.String("err", uerr.Error()))
			return nil
		}
		rec.apply(lsn, r.Ops)
		replayed++
		return nil
	})
	if err != nil {
		return false, fmt.Errorf("site %s: wal replay: %w", s.cfg.Name, err)
	}

	s.wmu.Lock()
	s.state.Store(&siteState{store: rec.store, owned: rec.owned, migrated: rec.migrated})
	s.subMu.Lock()
	s.subs = rec.subs
	s.subMu.Unlock()
	if s.cache != nil {
		// Warm-trim the rehydrated cache to budget, coldest first, before
		// durability turns on: the trim itself is not logged — the fresh
		// checkpoint below captures the trimmed state instead.
		if int64(rec.store.CachedBytes()) > s.cfg.CacheBudgetBytes && s.cfg.CacheBudgetBytes > 0 {
			w := rec.store.Begin()
			if evicted := s.evictToBudgetLocked(w); len(evicted) > 0 {
				s.publishLocked(&siteState{store: w.Commit(), owned: rec.owned, migrated: rec.migrated})
			}
		}
	}
	s.dur = d
	s.wmu.Unlock()

	if err := d.checkpoint(); err != nil {
		return true, fmt.Errorf("site %s: post-recovery checkpoint: %w", s.cfg.Name, err)
	}
	d.recoveryBits.Store(math.Float64bits(time.Since(t0).Seconds()))
	s.reRegisterOwned()
	s.log.Info("recovered from durable state",
		slog.Uint64("checkpoint_lsn", rec.from), slog.Int("replayed", replayed),
		slog.Duration("took", time.Since(t0)))
	return true, nil
}

// reRegisterOwned repoints naming at this site for every recovered owned
// node, so the recovered ownership set is authoritative again even if the
// registry moved on while the site was down.
func (s *Site) reRegisterOwned() {
	if s.cfg.Registry == nil {
		return
	}
	for _, k := range s.OwnedPaths() {
		p, err := xmldb.ParseIDPath(k)
		if err != nil {
			continue
		}
		s.cfg.Registry.Set(naming.DNSName(p, s.cfg.Service), s.cfg.Name)
	}
}

// recoveryState accumulates the store and tables while replaying the log.
// Cache residency is rebuilt directly in the site's (still private) cache
// policy, when it has one.
type recoveryState struct {
	s        *Site
	from     uint64
	store    *fragment.Store
	owned    map[string]bool
	migrated map[string]string
	subs     map[string]*replicaSub
}

func newRecoveryState(s *Site, cf *checkpointFile, store *fragment.Store, owned []xmldb.IDPath) *recoveryState {
	rec := &recoveryState{
		s:        s,
		owned:    map[string]bool{},
		migrated: map[string]string{},
		subs:     map[string]*replicaSub{},
	}
	if cf == nil {
		// No checkpoint survived (e.g. the first one was torn): start from
		// the partition base and replay the whole log.
		rec.store = store.Seal()
		for _, p := range owned {
			rec.owned[p.Key()] = true
		}
		return rec
	}
	root, err := xmldb.ParseString(cf.Store)
	if err != nil {
		// readNewestCheckpoint validated this; defensive fallback.
		rec.store = store.Seal()
		for _, p := range owned {
			rec.owned[p.Key()] = true
		}
		return rec
	}
	rec.from = cf.LSN
	rec.store = fragment.RestoreStore(root).Seal()
	for _, k := range cf.Owned {
		rec.owned[k] = true
	}
	for k, v := range cf.Migrated {
		rec.migrated[k] = v
	}
	for _, cs := range cf.Subs {
		rp, err := xmldb.ParseIDPath(cs.Root)
		if err != nil {
			continue
		}
		sub := &replicaSub{root: rp, owner: cs.Owner, seq: cs.Seq, ownerClock: cs.OwnerClock}
		for _, pk := range cs.OwnedPaths {
			if p, perr := xmldb.ParseIDPath(pk); perr == nil {
				sub.ownedPaths = append(sub.ownedPaths, p)
			}
		}
		rec.subs[rp.Key()] = sub
	}
	if s.cache != nil {
		s.cache.restore(cf.Cache)
	}
	return rec
}

// apply replays one record as a single COW transaction. Individual op
// failures are logged and skipped (a later checkpoint supersedes them);
// the transaction's surviving ops still commit together.
func (rec *recoveryState) apply(lsn uint64, ops []walOp) {
	s := rec.s
	w := rec.store.Begin()
	for _, op := range ops {
		if err := rec.applyOp(w, op); err != nil {
			s.log.Warn("wal replay: op skipped",
				slog.Uint64("lsn", lsn), slog.String("op", op.Op), slog.String("err", err.Error()))
		}
	}
	rec.store = w.Commit()
}

func (rec *recoveryState) applyOp(w *fragment.COW, op walOp) error {
	switch op.Op {
	case opUpdate:
		p, err := xmldb.ParseIDPath(op.Path)
		if err != nil {
			return err
		}
		return w.ApplyUpdate(p, op.Fields, op.Attrs, op.TS)
	case opMerge:
		frag, err := xmldb.ParseString(op.Frag)
		if err != nil {
			return err
		}
		if err := w.MergeFragment(frag); err != nil {
			return err
		}
		if op.Cached && rec.s.cache != nil {
			rec.s.cache.noteFetched([]*xmldb.Node{frag}, op.Clock, false)
		}
		return nil
	case opEvict:
		for _, k := range op.Paths {
			p, err := xmldb.ParseIDPath(k)
			if err != nil {
				continue
			}
			_ = w.EvictLocalInfo(p)
			if rec.s.cache != nil {
				rec.s.cache.forget(k)
			}
		}
		return nil
	case opSync:
		root, err := xmldb.ParseIDPath(op.Path)
		if err != nil {
			return err
		}
		frag, err := xmldb.ParseString(op.Frag)
		if err != nil {
			return err
		}
		if err := w.MergeFragment(frag); err != nil {
			return err
		}
		sub := &replicaSub{root: root, owner: op.Owner, ownerClock: op.Clock}
		for _, pk := range op.Paths {
			if p, perr := xmldb.ParseIDPath(pk); perr == nil {
				sub.ownedPaths = append(sub.ownedPaths, p)
			}
		}
		rec.subs[root.Key()] = sub
		return nil
	case opMark:
		root, err := xmldb.ParseIDPath(op.Path)
		if err != nil {
			return err
		}
		if sub := rec.subs[root.Key()]; sub != nil {
			if op.Seq > sub.seq {
				sub.seq = op.Seq
			}
			if op.Clock > sub.ownerClock {
				sub.ownerClock = op.Clock
			}
		}
		return nil
	case opTake:
		frag, err := xmldb.ParseString(op.Frag)
		if err != nil {
			return err
		}
		if err := w.MergeFragment(frag); err != nil {
			return err
		}
		for _, pk := range op.Paths {
			p, perr := xmldb.ParseIDPath(pk)
			if perr != nil {
				continue
			}
			if err := w.SetStatusAt(p, fragment.StatusOwned); err != nil {
				return err
			}
			rec.owned[p.Key()] = true
			delete(rec.migrated, p.Key())
		}
		return nil
	case opDelegate:
		for _, pk := range op.Paths {
			p, perr := xmldb.ParseIDPath(pk)
			if perr != nil {
				continue
			}
			delete(rec.owned, p.Key())
			rec.migrated[p.Key()] = op.Owner
			_ = w.SetStatusAt(p, fragment.StatusComplete)
		}
		return nil
	case opPromote:
		root, err := xmldb.ParseIDPath(op.Path)
		if err != nil {
			return err
		}
		for _, pk := range op.Paths {
			p, perr := xmldb.ParseIDPath(pk)
			if perr != nil {
				continue
			}
			if err := w.SetStatusAt(p, fragment.StatusOwned); err != nil {
				return err
			}
			rec.owned[p.Key()] = true
			delete(rec.migrated, p.Key())
		}
		delete(rec.subs, root.Key())
		return nil
	case opSchema:
		p, err := xmldb.ParseIDPath(op.Path)
		if err != nil {
			return err
		}
		addKey, delPrefix, err := schemaApply(w, rec.s.cfg.Name, SchemaOp(op.SchemaOp), p, op.Fields, op.TS,
			func(key string) bool { return rec.owned[key] })
		if err != nil {
			return err
		}
		if addKey != "" {
			rec.owned[addKey] = true
		}
		if delPrefix != "" {
			for k := range rec.owned {
				if k == delPrefix || strings.HasPrefix(k, delPrefix+"/") {
					delete(rec.owned, k)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown wal op %q", op.Op)
	}
}

// restore installs a checkpoint's residency metadata. Called during
// recovery, before any query can touch the policy.
func (c *cacheManager) restore(units map[string]ckptUnit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, u := range units {
		c.stampLocked([]byte(k), u.Last, u.Fetched)
	}
}

// snapshot copies the residency metadata for a checkpoint.
func (c *cacheManager) snapshot() map[string]ckptUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.units) == 0 {
		return nil
	}
	out := make(map[string]ckptUnit, len(c.units))
	for k, m := range c.units {
		out[k] = ckptUnit{Last: m.lastAccess, Fetched: m.fetchedAt}
	}
	return out
}

// checkpoint writes the current state to ckpt-<boundary>.json, prunes old
// checkpoints, and truncates the WAL prefix the surviving fallback covers.
func (d *durability) checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	s := d.s
	t0 := time.Now()

	// Rotate under wmu: every record at or below the boundary committed
	// under a previous wmu hold, so the state captured here reflects it.
	s.wmu.Lock()
	boundary, err := d.log.Rotate()
	if err != nil {
		s.wmu.Unlock()
		return err
	}
	st := s.state.Load()
	clock := s.cfg.Clock()
	s.wmu.Unlock()

	cf := checkpointFile{LSN: boundary, Clock: clock}
	cf.Owned = make([]string, 0, len(st.owned))
	for k := range st.owned {
		cf.Owned = append(cf.Owned, k)
	}
	sort.Strings(cf.Owned)
	if len(st.migrated) > 0 {
		cf.Migrated = copyMigrated(st.migrated)
	}
	// Subscriptions are read after the rotate: a watermark mark logged
	// before the boundary has already advanced the sub (marks append under
	// subMu after the advance), and watermarks are monotone, so reading a
	// later value than the boundary saw is harmless.
	s.subMu.Lock()
	for _, sub := range s.subs {
		cs := ckptSub{Root: sub.root.String(), Owner: sub.owner, Seq: sub.seq, OwnerClock: sub.ownerClock}
		for _, p := range sub.ownedPaths {
			cs.OwnedPaths = append(cs.OwnedPaths, p.String())
		}
		cf.Subs = append(cf.Subs, cs)
	}
	s.subMu.Unlock()
	sort.Slice(cf.Subs, func(i, j int) bool { return cf.Subs[i].Root < cf.Subs[j].Root })
	if s.cache != nil {
		cf.Cache = s.cache.snapshot()
	}
	// Serializing the sealed snapshot needs no locks: writers have moved on
	// to building the next version.
	cf.Store = st.store.Root.StringSized(st.store.Size())

	if err := writeCheckpoint(d.dir, boundary, &cf); err != nil {
		return err
	}
	if err := d.prune(); err != nil {
		return err
	}
	s.Metrics.Checkpoints.Inc()
	s.Metrics.CheckpointSeconds.Observe(time.Since(t0).Seconds())
	return nil
}

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, lsn, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(name[len(ckptPrefix):len(name)-len(ckptSuffix)], "%d", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// writeCheckpoint writes atomically: temp file, fsync, rename, dir fsync.
// A crash leaves either the previous checkpoint set or the new one, never
// a half-written file under a checkpoint name.
func writeCheckpoint(dir string, lsn uint64, cf *checkpointFile) error {
	b, err := json.Marshal(cf)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "ckpt-tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ckptName(lsn))); err != nil {
		os.Remove(tmpName)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// listCheckpoints returns checkpoint boundaries, ascending.
func listCheckpoints(dir string) []uint64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range ents {
		if lsn, ok := parseCkptName(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readNewestCheckpoint tries checkpoints newest-first and returns the first
// that parses fully (JSON and store XML); nil when none do.
func readNewestCheckpoint(dir string, log *slog.Logger) *checkpointFile {
	lsns := listCheckpoints(dir)
	for i := len(lsns) - 1; i >= 0; i-- {
		path := filepath.Join(dir, ckptName(lsns[i]))
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var cf checkpointFile
		if err := json.Unmarshal(b, &cf); err != nil {
			log.Warn("checkpoint unreadable; trying older", slog.String("file", path), slog.String("err", err.Error()))
			continue
		}
		if _, err := xmldb.ParseString(cf.Store); err != nil {
			log.Warn("checkpoint store corrupt; trying older", slog.String("file", path), slog.String("err", err.Error()))
			continue
		}
		return &cf
	}
	return nil
}

// prune keeps the newest ckptKeep checkpoints, removes older ones, and
// truncates the WAL through the oldest surviving boundary (recovery can
// always fall back to that checkpoint plus the remaining log).
func (d *durability) prune() error {
	lsns := listCheckpoints(d.dir)
	if len(lsns) > ckptKeep {
		for _, lsn := range lsns[:len(lsns)-ckptKeep] {
			if err := os.Remove(filepath.Join(d.dir, ckptName(lsn))); err != nil {
				return err
			}
		}
		lsns = lsns[len(lsns)-ckptKeep:]
	}
	if len(lsns) > 0 {
		return d.log.RemoveThrough(lsns[0])
	}
	return nil
}

// loop checkpoints on a timer until the site stops.
func (d *durability) loop() {
	defer d.s.loopWG.Done()
	interval := d.s.cfg.CheckpointInterval
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.checkpoint(); err != nil {
				d.s.log.Error("checkpoint failed", slog.String("err", err.Error()))
			}
		}
	}
}

// finish closes out durability on shutdown: a clean stop writes a final
// checkpoint and fsync-closes the log; a crash abandons the log fd without
// flushing, exactly as kill -9 would.
func (d *durability) finish(crash bool) {
	d.finishOnce.Do(func() {
		if crash {
			d.log.Abandon()
			return
		}
		if err := d.checkpoint(); err != nil {
			d.s.log.Error("final checkpoint failed", slog.String("err", err.Error()))
		}
		if err := d.log.Close(); err != nil {
			d.s.log.Error("wal close failed", slog.String("err", err.Error()))
		}
	})
}
