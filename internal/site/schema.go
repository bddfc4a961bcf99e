package site

import (
	"fmt"
	"sort"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/xmldb"
)

// Schema changes (Section 4, "Schema changes"). Changes that do not affect
// the IDable hierarchy — adding/removing attributes and non-IDable nodes —
// are performed locally by the organizing agent owning the fragment.
// Adding or deleting IDable nodes is performed by the owner of the parent,
// which also maintains the DNS entries. Both kinds may leave cached copies
// elsewhere transiently inconsistent, which the paper accepts for this
// class of applications; caches converge as fresh answers flow.

// SchemaOp identifies a schema-change operation.
type SchemaOp string

// Supported schema operations.
const (
	// OpSetAttrs adds or replaces attributes on an owned node (Fields in
	// the wire message carry name->value).
	OpSetAttrs SchemaOp = "set-attrs"
	// OpDelAttrs removes the named attributes (keys of Fields).
	OpDelAttrs SchemaOp = "del-attrs"
	// OpAddChild adds a non-IDable child element (Name in Fields["name"],
	// text in Fields["text"]) to an owned node.
	OpAddChild SchemaOp = "add-child"
	// OpDelChild removes all non-IDable children with Fields["name"].
	OpDelChild SchemaOp = "del-child"
	// OpAddIDable adds a new IDable child (Fields["name"], Fields["id"]).
	// Ownership defaults to this site (the parent's owner), and the DNS
	// entry is registered.
	OpAddIDable SchemaOp = "add-idable"
	// OpDelIDable deletes an IDable child and its subtree. Only subtrees
	// wholly owned by this site may be deleted; the DNS entries are
	// removed via re-pointing to the empty owner.
	OpDelIDable SchemaOp = "del-idable"
)

// schemaApply is the operation core shared by the live write path and WAL
// replay: it mutates the transaction and reports the ownership-table delta
// — addKey is a new owned key (add-idable), delPrefix a deleted subtree
// whose owned keys must go (del-idable). ownedCheck answers "does this
// site own the node at key" against whichever ownership view the caller
// holds (the published table live, the recovering table on replay);
// iteration over args is sorted so replay rebuilds byte-identical trees.
func schemaApply(w *fragment.COW, siteName string, op SchemaOp, p xmldb.IDPath, args map[string]string, ts float64, ownedCheck func(string) bool) (addKey, delPrefix string, err error) {
	n, err := w.Touch(p)
	if err != nil {
		return "", "", fmt.Errorf("site %s: owned node %s missing", siteName, p)
	}
	switch op {
	case OpSetAttrs:
		for _, name := range sortedArgNames(args) {
			if name == xmldb.AttrID || name == xmldb.AttrStatus {
				return "", "", fmt.Errorf("site %s: attribute %q is reserved", siteName, name)
			}
			n.SetAttr(name, args[name])
		}
	case OpDelAttrs:
		for _, name := range sortedArgNames(args) {
			if name == xmldb.AttrID || name == xmldb.AttrStatus {
				return "", "", fmt.Errorf("site %s: attribute %q is reserved", siteName, name)
			}
			n.DelAttr(name)
		}
	case OpAddChild:
		name := args["name"]
		if name == "" {
			return "", "", fmt.Errorf("site %s: add-child needs a name", siteName)
		}
		c := w.AddChild(n, xmldb.NewNode(name))
		c.Text = args["text"]
	case OpDelChild:
		name := args["name"]
		removed := false
		for _, c := range n.ChildrenNamed(name) {
			if c.ID() != "" {
				return "", "", fmt.Errorf("site %s: %q is IDable; use del-idable", siteName, name)
			}
			w.RemoveChild(n, c)
			removed = true
		}
		if !removed {
			return "", "", fmt.Errorf("site %s: no non-IDable child %q under %s", siteName, name, p)
		}
	case OpAddIDable:
		name, id := args["name"], args["id"]
		if name == "" || id == "" {
			return "", "", fmt.Errorf("site %s: add-idable needs name and id", siteName)
		}
		if n.Child(name, id) != nil {
			return "", "", fmt.Errorf("site %s: child <%s id=%q> already exists", siteName, name, id)
		}
		child := w.AddChild(n, xmldb.NewElem(name, id))
		fragment.SetStatus(child, fragment.StatusOwned)
		addKey = p.Child(name, id).Key()
	case OpDelIDable:
		name, id := args["name"], args["id"]
		child := n.Child(name, id)
		if child == nil {
			return "", "", fmt.Errorf("site %s: no child <%s id=%q> under %s", siteName, name, id, p)
		}
		cp := p.Child(name, id)
		// Every IDable node in the deleted subtree must be owned here. The
		// walk carries each node's ID path down with it: nodes of a
		// published version have no parent pointers to climb.
		var ownedBelow func(x *xmldb.Node, xp xmldb.IDPath) bool
		ownedBelow = func(x *xmldb.Node, xp xmldb.IDPath) bool {
			if !ownedCheck(xp.Key()) {
				return false
			}
			for _, c := range x.Children {
				if c.ID() != "" && !ownedBelow(c, xp.Child(c.Name, c.ID())) {
					return false
				}
			}
			return true
		}
		unowned := id != "" && !ownedBelow(child, cp)
		if unowned {
			return "", "", fmt.Errorf("site %s: subtree %s has nodes owned elsewhere; migrate first", siteName, cp)
		}
		w.RemoveChild(n, child)
		delPrefix = cp.Key()
	default:
		return "", "", fmt.Errorf("site %s: unknown schema op %q", siteName, op)
	}
	fragment.SetTimestamp(n, ts)
	return addKey, delPrefix, nil
}

// sortedArgNames returns the arg names ascending, for deterministic replay.
func sortedArgNames(args map[string]string) []string {
	names := make([]string, 0, len(args))
	for name := range args {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SchemaChange applies one schema operation to the owned node at path. Like
// every other write it is a copy-on-write transaction: the operation builds
// the next store version and publishes it together with any ownership-table
// change, so concurrent queries see either the old or the new schema, never
// a half-applied one.
func (s *Site) SchemaChange(op SchemaOp, p xmldb.IDPath, args map[string]string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st := s.state.Load()
	if !st.owned[p.Key()] {
		return fmt.Errorf("site %s: schema change on unowned node %s", s.cfg.Name, p)
	}
	ts := s.cfg.Clock()
	w := st.store.Begin()
	addKey, delPrefix, err := schemaApply(w, s.cfg.Name, op, p, args, ts,
		func(key string) bool { return st.owned[key] })
	if err != nil {
		return err
	}
	owned := st.owned // replaced with a copy by the ops that change it
	var registry func()
	if addKey != "" {
		owned = copyOwned(st.owned)
		owned[addKey] = true
		if s.cfg.Registry != nil {
			cp, perr := xmldb.ParseIDPath(addKey)
			if perr == nil {
				registry = func() { s.cfg.Registry.Set(naming.DNSName(cp, s.cfg.Service), s.cfg.Name) }
			}
		}
	}
	if delPrefix != "" {
		owned = copyOwned(st.owned)
		for k := range owned {
			if k == delPrefix || len(k) > len(delPrefix) && k[:len(delPrefix)+1] == delPrefix+"/" {
				delete(owned, k)
			}
		}
	}
	lsn := s.walAppend(walOp{Op: opSchema, SchemaOp: string(op), Path: p.String(), Fields: args, TS: ts})
	s.publishLocked(&siteState{store: w.Commit(), owned: owned, migrated: st.migrated})
	// Rare control-plane op: waiting under wmu is acceptable, and the DNS
	// registration below must not outrun the durable schema change.
	s.walWait(lsn)
	if s.summaries != nil {
		// A schema change can add or remove aggregate matches anywhere under
		// the changed node; flushing is simpler than reasoning per-op.
		s.summaries.flush()
	}
	if registry != nil {
		registry()
	}
	return nil
}

// handleSchema serves the wire form of SchemaChange.
func (s *Site) handleSchema(msg *Message) *Message {
	p, err := xmldb.ParseIDPath(msg.Path)
	if err != nil {
		return errorMessage(err)
	}
	if err := s.SchemaChange(SchemaOp(msg.Op), p, msg.Fields); err != nil {
		return errorMessage(err)
	}
	return &Message{Kind: KindOK}
}
