package site

import (
	"context"
	"fmt"
	"log/slog"
	"sort"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/xmldb"
)

// Ownership migration (Section 4, "Ownership changes"). Transferring the
// subtree rooted at an IDable node from its current owner to a new site:
//
//  1. the new owner receives a copy of the local information of every
//     transferred node (one "take" message),
//  2. the new owner marks them owned,
//  3. the old owner downgrades its copies to complete,
//  4. the DNS entries are repointed to the new owner.
//
// The old owner holds its writer mutex for the duration, so no update or
// merge can slip in mid-transfer; queries keep reading the last published
// version throughout and then atomically observe the post-transfer state.
// Queries arriving at the old owner afterwards (stale DNS) are still
// answerable from its complete copy, and updates are forwarded
// (site.handleUpdate).

// Delegate transfers ownership of the node at path (and every descendant
// this site owns) to the named site. It is driven by the load-balancing
// harness and by the "delegate" wire message.
func (s *Site) Delegate(path xmldb.IDPath, newOwner string) error {
	if newOwner == s.cfg.Name {
		return fmt.Errorf("site %s: cannot delegate %s to itself", s.cfg.Name, path)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := s.state.Load()

	if !st.owned[path.Key()] {
		return fmt.Errorf("site %s: does not own %s", s.cfg.Name, path)
	}
	transfer := ownedUnder(st.owned, path)

	// The transfer fragment is a delta over the transferred nodes: ancestors'
	// local ID information plus the local information of every transferred
	// node (exactly the data the new owner must hold to satisfy I1/I2), read
	// from the published (immutable) version.
	frag, err := fragment.BuildDelta(st.store, transfer)
	if err != nil {
		return err
	}

	keys := pathStrings(transfer)
	take := &Message{
		Kind:     KindTake,
		Fragment: frag.Root.StringSized(frag.Size()),
		Paths:    keys,
	}
	respB, err := s.call.Call(context.Background(), newOwner, take.Encode())
	if err != nil {
		return fmt.Errorf("site %s: transferring %s to %s: %w", s.cfg.Name, path, newOwner, err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		return err
	}
	if e := resp.AsError(); e != nil {
		return fmt.Errorf("site %s: new owner rejected transfer: %w", s.cfg.Name, e)
	}

	// Step 3: downgrade local copies; step 4: repoint DNS (the atomic
	// commit point from the rest of the system's perspective). The store
	// downgrade, ownership table and forwarding table change together in
	// one published version; wmu has been held since the ownership check, so
	// this is the one writer that commits in the already-locked form.
	lsn, err := s.commitLocked([]walOp{{Op: opDelegate, Paths: keys, Owner: newOwner, paths: transfer}}, 0)
	if err != nil {
		return err
	}
	// Rare control-plane op: waiting under wmu is acceptable, and the
	// registry repoint below must not outrun the durable forwarding table.
	if err := s.walWait(lsn); err != nil {
		return err
	}
	if s.cfg.Registry != nil {
		for _, p := range transfer {
			s.cfg.Registry.Set(naming.DNSName(p, s.cfg.Service), newOwner)
		}
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "ownership delegated",
		slog.String("path", path.String()), slog.String("to", newOwner),
		slog.Int("nodes", len(transfer)))
	return nil
}

// ownedUnder returns the sorted owned paths at or below path.
func ownedUnder(owned map[string]bool, path xmldb.IDPath) []xmldb.IDPath {
	prefix := path.Key()
	var out []xmldb.IDPath
	for k := range owned {
		if keyUnder(k, prefix) {
			p, err := xmldb.ParseIDPath(k)
			if err != nil {
				continue
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

// handleDelegate serves the wire form of Delegate.
func (s *Site) handleDelegate(msg *Message) *Message {
	p, err := xmldb.ParseIDPath(msg.Path)
	if err != nil {
		return errorMessage(err)
	}
	if err := s.Delegate(p, msg.NewOwner); err != nil {
		return errorMessage(err)
	}
	return &Message{Kind: KindOK}
}

// handleTake accepts ownership of the transferred nodes.
func (s *Site) handleTake(msg *Message) *Message {
	frag, err := xmldb.ParseString(msg.Fragment)
	if err != nil {
		return errorMessage(err)
	}
	paths, err := parsePaths(msg.Paths)
	if err != nil {
		return errorMessage(fmt.Errorf("site %s: transfer: %w", s.cfg.Name, err))
	}
	var lsn uint64
	s.cpu.Do(func() {
		lsn, err = s.commit(walOp{Op: opTake, Frag: msg.Fragment, Paths: msg.Paths, frag: frag, paths: paths})
	})
	if err != nil {
		return errorMessage(err)
	}
	// The old owner downgrades its copy on this ack; the accepted
	// ownership must be durable before that happens.
	if err := s.walWait(lsn); err != nil {
		return errorMessage(err)
	}
	return &Message{Kind: KindOK}
}
