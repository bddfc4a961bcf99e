package site

import (
	"fmt"
	"maps"
	"strings"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
)

// The write path (DESIGN.md §9): every store transition is a command, every
// command has one applier (apply), and every transaction — a live writer's or
// a replayed WAL record's — goes through one commit point (commitLocked).

// encode fills in the text of whichever of Path, Paths and Frag the writer
// handed over only in decoded form. It runs when a commit is logged, so a
// site without a DataDir never serializes them.
func (c *walOp) encode() {
	if c.Path == "" && c.path != nil {
		c.Path = c.path.String()
	}
	if c.Frag == "" && c.frag != nil {
		c.Frag = c.frag.String()
	}
	if c.Paths == nil {
		c.Paths = pathStrings(c.paths)
	}
}

// pathStrings is the log form of a path list.
func pathStrings(paths []xmldb.IDPath) []string {
	var out []string
	for _, p := range paths {
		out = append(out, p.String())
	}
	return out
}

// parsePaths is the inverse of pathStrings. An entry that does not parse is
// dropped and reported: a wire handler rejects the message on it.
func parsePaths(keys []string) ([]xmldb.IDPath, error) {
	var out []xmldb.IDPath
	var bad error
	for _, k := range keys {
		p, err := xmldb.ParseIDPath(k)
		if err != nil {
			bad = fmt.Errorf("bad path %q: %w", k, err)
			continue
		}
		out = append(out, p)
	}
	return out, bad
}

// decode is the inverse of encode, for a command read back from the log. An
// unparseable Path or Frag rejects it.
func (c *walOp) decode() (err error) {
	if c.Path != "" {
		if c.path, err = xmldb.ParseIDPath(c.Path); err != nil {
			return err
		}
	}
	if c.Frag != "" {
		if c.frag, err = xmldb.ParseString(c.Frag); err != nil {
			return err
		}
	}
	if c.Op != opEvict { // an evict's Paths are residency unit keys and stay text
		c.paths, _ = parsePaths(c.Paths)
	}
	return nil
}

// notOwnedError rejects an update for a node this site does not own;
// handleUpdate forwards it to to. The target is read from the forwarding
// table of the very transaction that rejected the update: looked up after
// commit returns, a delegation back to this site could already have claimed
// the node and deleted the entry. to is empty when the table has none.
type notOwnedError struct{ to string }

func (e *notOwnedError) Error() string { return "node not owned here" }

// forwardIn returns the forwarding-table entry of p or of its nearest
// delegated ancestor.
func forwardIn(migrated map[string]string, p xmldb.IDPath) (string, bool) {
	for q := p; len(q) > 0; q = q[:len(q)-1] {
		if to, ok := migrated[q.Key()]; ok {
			return to, true
		}
	}
	return "", false
}

// txn is one transaction in progress: the next store version and the tables
// published with it.
type txn struct {
	store    *fragment.Store // the published version, until a command writes it
	w        *fragment.COW   // nil until then
	owned    map[string]bool
	migrated map[string]string
	private  bool // owned and migrated are this transaction's copies
}

// cow returns the copy-on-write transaction on the published version,
// beginning it at the first store write: a replayed mark record commits
// without making a store version.
func (tx *txn) cow() *fragment.COW {
	if tx.w == nil {
		tx.w = tx.store.Begin()
	}
	return tx.w
}

// tables returns the ownership and forwarding tables for writing. Published
// maps are immutable (readers iterate them without locks), so the first
// writer in a transaction copies them.
func (tx *txn) tables() (map[string]bool, map[string]string) {
	if !tx.private {
		tx.owned, tx.migrated, tx.private = maps.Clone(tx.owned), maps.Clone(tx.migrated), true
	}
	return tx.owned, tx.migrated
}

// claim makes this site the owner of the nodes at paths, which the store must
// hold; it returns the first one it does not.
func (tx *txn) claim(paths []xmldb.IDPath) xmldb.IDPath {
	owned, migrated := tx.tables()
	for _, p := range paths {
		if tx.cow().SetStatusAt(p, fragment.StatusOwned) != nil {
			return p
		}
		owned[p.Key()] = true
		delete(migrated, p.Key())
	}
	return nil
}

// keyUnder reports whether the ID-path key names root or a node below it.
func keyUnder(key, root string) bool {
	return key == root || strings.HasPrefix(key, root+"/")
}

// commit runs the commands as one transaction and returns its WAL LSN (0 when
// the site is not durable, or nothing changed). A failing command abandons the
// transaction: nothing is logged or published. Acked writers walWait on the
// LSN after commit has released wmu, so fsync latency never serializes other
// commits (group commit).
func (s *Site) commit(cmds ...walOp) (uint64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// New commands take the commit clock, read under wmu, so timestamps
	// follow commit order.
	now := s.cfg.Clock()
	for i := range cmds {
		switch c := &cmds[i]; {
		case c.Op == opUpdate || c.Op == opSchema:
			c.TS = now
		case c.Op == opMerge && c.Cached:
			c.Clock = now
		}
	}
	return s.commitLocked(cmds, 0)
}

// commitLocked is the site's one commit point. With wmu held it opens a
// transaction on the published version, applies the commands, appends their
// single WAL record and publishes the next version; a failed append
// publishes nothing. Append and publish share the one wmu hold, which is the
// whole of the checkpoint consistency invariant (durable.go).
//
// replayOf is the LSN of the record being replayed during recovery, 0 on a
// live commit. Replay decodes each command first and appends nothing,
// because recovery turns durability on only when it is done. A record is
// all or nothing on replay as it was live: a command that fails fails the
// record, naming its LSN and the command's index, and publishes nothing, so
// recovery never comes up in a state no live site had.
func (s *Site) commitLocked(cmds []walOp, replayOf uint64) (uint64, error) {
	st := s.state.Load()
	tx := txn{store: st.store, owned: st.owned, migrated: st.migrated}
	if s.cache != nil {
		// Units a merge installs are held against the eviction pass of their
		// own transaction (cache.go) until it is over, however it ends.
		defer s.cache.release()
	}
	for i := range cmds {
		c := &cmds[i]
		var err error
		if replayOf != 0 {
			err = c.decode()
		}
		if err == nil {
			err = s.apply(&tx, c)
		}
		if err != nil {
			if replayOf != 0 {
				return 0, fmt.Errorf("record at lsn %d: op %d (%s): %w", replayOf, i, c.Op, err)
			}
			return 0, err
		}
	}
	// An eviction pass (always a transaction's last command: it makes room
	// for the merges before it) that found the version within budget is not
	// logged, and alone it is not a commit at all.
	if n := len(cmds); n > 0 && cmds[n-1].Op == opEvict && len(cmds[n-1].Paths) == 0 {
		cmds = cmds[:n-1]
	}
	if len(cmds) == 0 {
		return 0, nil
	}
	if tx.w != nil {
		tx.store = tx.w.Commit()
	}
	lsn, err := s.walAppend(cmds)
	if err != nil {
		return 0, err
	}
	s.publishLocked(&siteState{store: tx.store, owned: tx.owned, migrated: tx.migrated})
	return lsn, nil
}

// apply performs one command on the transaction: its store, ownership and
// forwarding-table and residency mutations. It is the only implementation of
// each op, live and on replay. Checks that can fail come before mutations
// outside the transaction (the residency policy), so an abandoned transaction
// leaves those untouched.
func (s *Site) apply(tx *txn, c *walOp) error {
	if c.Op == opMerge || c.Op == opSync || c.Op == opTake {
		// The ops that carry a fragment install it the same way. Validation
		// precedes any edit, so a rejected fragment leaves tx unchanged.
		// A replayed sync record needs nothing more: its fragment is a
		// cached copy, merged like any other.
		if c.frag == nil {
			return fmt.Errorf("%s without a fragment", c.Op)
		}
		if err := tx.cow().MergeFragment(c.frag); err != nil {
			return err
		}
	}
	switch c.Op {
	case opUpdate:
		// Checked under wmu: an update racing a delegation is applied before
		// the handoff or forwarded after it, never acked and left behind.
		if c.Path = c.path.Key(); !tx.owned[c.Path] { // a path's key is its log form
			to, _ := forwardIn(tx.migrated, c.path)
			return &notOwnedError{to}
		}
		if err := tx.cow().ApplyUpdate(c.path, c.Fields, c.Attrs, c.TS); err != nil {
			return fmt.Errorf("site %s: owned node %s missing from store", s.cfg.Name, c.path)
		}
	case opSchema:
		return s.schemaApply(tx, c)
	case opMerge:
		if c.Cached && s.cache != nil {
			s.cache.noteFetched([]*xmldb.Node{c.frag}, c.Clock, true)
		}
	case opEvict:
		if len(c.Paths) == 0 {
			// A new eviction: the policy chooses what goes, and the command
			// records it.
			c.Paths = s.evictToBudgetLocked(tx.cow())
			return nil
		}
		for _, k := range c.Paths {
			_ = evictUnit(tx.cow(), k)
			if s.cache != nil {
				s.cache.forget(k)
			}
		}
	case opSync, opMark:
	case opTake, opPromote:
		if p := tx.claim(c.paths); p != nil {
			return fmt.Errorf("site %s: transferred node %s missing", s.cfg.Name, p)
		}
	case opDelegate:
		owned, migrated := tx.tables()
		for _, p := range c.paths {
			delete(owned, p.Key())
			migrated[p.Key()] = c.Owner
			// Ignore a missing node: ownership of a stub can be delegated
			// even though there is nothing to downgrade.
			_ = tx.cow().SetStatusAt(p, fragment.StatusComplete)
		}
	default:
		return fmt.Errorf("unknown wal op %q", c.Op)
	}
	return nil
}

// evictUnit is the one eviction primitive: it drops the local information of
// the cached unit with the given residency key (complete -> id-complete).
// EvictLocalInfo refuses owned and already-downgraded nodes.
func evictUnit(w *fragment.COW, key string) error {
	p, err := xmldb.ParseIDPath(key)
	if err != nil {
		return err
	}
	return w.EvictLocalInfo(p)
}
