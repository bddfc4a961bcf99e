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

// Per-site durability (DESIGN.md §15). When Config.DataDir is set, every
// commit (commit.go) appends its commands as one CRC-framed record to a
// write-ahead log in the wmu hold that publishes it, and a background loop
// periodically checkpoints the current sealed snapshot — the store XML plus
// the ownership/forwarding tables and the cache policy's residency metadata —
// then truncates the log prefix the checkpoint covers. Restart recovers by
// installing the newest parseable checkpoint and running the log tail, record
// by record, through the same commit point the live site uses, so a recovered
// site is byte-identical to the state whose acked commits reached the log,
// rejoins with a warm cache (trimmed to CacheBudgetBytes, coldest first), and
// re-registers its recovered ownership with naming.
//
// Consistency invariant: a checkpoint rotates the log and captures the state
// in one wmu hold, and every commit appends and publishes in one wmu hold, so
// the captured state reflects exactly the records with LSN <= the rotation
// boundary.

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

// walOp is one command of a transaction (commit.go): the JSON fields are its
// log form, the unexported ones the decoded form of Path, Paths and Frag that
// the applier works on. A live writer fills in what it holds — decoded, and
// as text when that is how it arrived — and encode and decode supply the other
// side when the command is logged or read back, so the live path neither
// re-parses nor re-serializes anything. A walRecord groups the commands that
// committed together (a cache merge plus the evictions it forced) so replay
// commits them together too.
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
	Clock    float64           `json:"clock,omitempty"`
	// Cached marks a merge that entered through the caching path, so replay
	// re-registers its units with the residency policy at Clock.
	Cached bool `json:"cached,omitempty"`

	path  xmldb.IDPath
	paths []xmldb.IDPath
	frag  *xmldb.Node
}

// Op values. Each names the writer that builds it and the fields it carries.
const (
	opUpdate   = "update"   // handleUpdate: Path, Fields, Attrs, TS
	opMerge    = "merge"    // commitMerge: Frag, Clock, Cached
	opEvict    = "evict"    // budget eviction: Paths (unit keys)
	opTake     = "take"     // handleTake: Frag, Paths
	opDelegate = "delegate" // Delegate: Paths, Owner
	opSchema   = "schema"   // SchemaChange: SchemaOp, Path, Fields (args), TS
)

// Replay-only op values: read replicas wrote them into logs, and no live
// path builds them any more. A sync record replays as a cached merge of its
// Frag, a mark record as nothing, a promote record as a claim of its Paths.
const (
	opSync    = "sync"
	opMark    = "mark"
	opPromote = "promote"
)

type walRecord struct {
	Ops []walOp `json:"ops"`
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

// walAppend encodes one transaction's commands and appends them to the WAL
// as one record. It returns LSN 0 when durability is off. An error abandons
// the commit: what is not logged is not published, so a site on a failed
// disk takes no more writes (the log latches its first failure).
func (s *Site) walAppend(cmds []walOp) (uint64, error) {
	if s.dur == nil {
		return 0, nil
	}
	for i := range cmds {
		cmds[i].encode()
	}
	b, err := json.Marshal(walRecord{Ops: cmds})
	if err != nil {
		return 0, fmt.Errorf("site %s: wal encode: %w", s.cfg.Name, err)
	}
	lsn, err := s.dur.log.Append(b)
	if err != nil {
		s.log.Error("wal append failed", slog.String("err", err.Error()))
		return 0, fmt.Errorf("site %s: wal append: %w", s.cfg.Name, err)
	}
	return lsn, nil
}

// walWait blocks until the record at lsn is durable per the fsync policy.
// Acked writes call it after releasing the writer mutex, so group commit
// batches concurrent writers behind one fsync. An error means the write is
// published but may not survive a crash; the writer replies with it, not
// with an ack.
func (s *Site) walWait(lsn uint64) error {
	if s.dur == nil || lsn == 0 {
		return nil
	}
	if err := s.dur.log.Sync(lsn); err != nil {
		s.log.Error("wal fsync failed", slog.String("err", err.Error()))
		return fmt.Errorf("site %s: wal fsync: %w", s.cfg.Name, err)
	}
	return nil
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

	cf, root := readNewestCheckpoint(s.cfg.DataDir, s.log)
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

	// Replay: each record is one transaction through the site's commit point.
	// s.dur is still nil, so nothing is appended, and the site is not on the
	// network yet, so nobody reads the versions replay publishes.
	var from uint64
	if cf == nil {
		// No checkpoint survived (e.g. the first one was torn): start from
		// the partition base and replay the whole log.
		s.Load(store, owned)
	} else {
		s.restore(cf, root)
		from = cf.LSN
	}
	s.wmu.Lock()
	replayed := 0
	err = log.Replay(from, func(lsn uint64, payload []byte) error {
		var r walRecord
		if uerr := json.Unmarshal(payload, &r); uerr != nil {
			// The CRC passed, so this is an acked transaction the code
			// cannot read: refuse to come up without it.
			return fmt.Errorf("undecodable record at lsn %d: %w", lsn, uerr)
		}
		if _, cerr := s.commitLocked(r.Ops, lsn); cerr != nil {
			return cerr
		}
		replayed++
		return nil
	})
	if err != nil {
		s.wmu.Unlock()
		log.Close()
		return false, fmt.Errorf("site %s: wal replay: %w", s.cfg.Name, err)
	}
	if s.cache != nil {
		// Warm-trim the rehydrated cache to budget, coldest first, before
		// durability turns on: the trim is an ordinary eviction commit that is
		// not logged — the fresh checkpoint below captures the trimmed state.
		_, _ = s.commitLocked([]walOp{{Op: opEvict}}, 0)
	}
	s.dur = d
	s.wmu.Unlock()

	if err := d.checkpoint(); err != nil {
		return true, fmt.Errorf("site %s: post-recovery checkpoint: %w", s.cfg.Name, err)
	}
	d.recoveryBits.Store(math.Float64bits(time.Since(t0).Seconds()))
	s.reRegisterOwned()
	s.log.Info("recovered from durable state",
		slog.Uint64("checkpoint_lsn", from), slog.Int("replayed", replayed),
		slog.Duration("took", time.Since(t0)))
	return true, nil
}

// restore is Load from a checkpoint: it installs the store (doc is its parsed
// XML), the ownership and forwarding tables, and the residency metadata. The
// read-replica subscriptions older checkpoints carry under "subs" are ignored.
func (s *Site) restore(cf *checkpointFile, doc *xmldb.Node) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := &siteState{
		store:    fragment.RestoreStore(doc).Seal(),
		owned:    make(map[string]bool, len(cf.Owned)),
		migrated: cf.Migrated,
	}
	for _, k := range cf.Owned {
		st.owned[k] = true
	}
	if st.migrated == nil {
		st.migrated = map[string]string{}
	}
	s.state.Store(st)
	if s.cache != nil {
		s.cache.restore(cf.Cache)
	}
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
	cf := checkpointFile{LSN: boundary, Clock: s.cfg.Clock()}
	s.wmu.Unlock()

	cf.Owned = make([]string, 0, len(st.owned))
	for k := range st.owned {
		cf.Owned = append(cf.Owned, k)
	}
	sort.Strings(cf.Owned)
	cf.Migrated = st.migrated
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
// that parses fully (JSON and store XML) with its parsed store; nil when none
// do.
func readNewestCheckpoint(dir string, log *slog.Logger) (*checkpointFile, *xmldb.Node) {
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
		root, err := xmldb.ParseString(cf.Store)
		if err != nil {
			log.Warn("checkpoint store corrupt; trying older", slog.String("file", path), slog.String("err", err.Error()))
			continue
		}
		return &cf, root
	}
	return nil, nil
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
