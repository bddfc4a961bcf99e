package site

import (
	"fmt"
	"maps"
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

// schemaApply is the applier of a schema command (commit.go): it performs the
// operation on the transaction's store, applies the ownership-table change of
// add-idable and del-idable, and announces the nodes whose local information
// changed. Ownership is checked against the transaction's table, under wmu.
// Iteration over args is sorted so replay rebuilds byte-identical trees.
func (s *Site) schemaApply(tx *txn, c *walOp) error {
	site, p, args := s.cfg.Name, c.path, c.Fields
	if !tx.owned[p.Key()] {
		return fmt.Errorf("site %s: schema change on unowned node %s", site, p)
	}
	w := tx.cow()
	n, err := w.Touch(p)
	if err != nil {
		return fmt.Errorf("site %s: owned node %s missing", site, p)
	}
	switch op := SchemaOp(c.SchemaOp); op {
	case OpSetAttrs, OpDelAttrs:
		for _, name := range sortedArgNames(args) {
			if name == xmldb.AttrID || name == xmldb.AttrStatus {
				return fmt.Errorf("site %s: attribute %q is reserved", site, name)
			}
			if op == OpSetAttrs {
				n.SetAttr(name, args[name])
			} else {
				n.DelAttr(name)
			}
		}
	case OpAddChild:
		name := args["name"]
		if name == "" {
			return fmt.Errorf("site %s: add-child needs a name", site)
		}
		child := w.AddChild(n, xmldb.NewNode(name))
		child.Text = args["text"]
	case OpDelChild:
		name := args["name"]
		removed := false
		for _, child := range n.ChildrenNamed(name) {
			if child.ID() != "" {
				return fmt.Errorf("site %s: %q is IDable; use del-idable", site, name)
			}
			w.RemoveChild(n, child)
			removed = true
		}
		if !removed {
			return fmt.Errorf("site %s: no non-IDable child %q under %s", site, name, p)
		}
	case OpAddIDable:
		name, id := args["name"], args["id"]
		if name == "" || id == "" {
			return fmt.Errorf("site %s: add-idable needs name and id", site)
		}
		if n.Child(name, id) != nil {
			return fmt.Errorf("site %s: child <%s id=%q> already exists", site, name, id)
		}
		fragment.SetStatus(w.AddChild(n, xmldb.NewElem(name, id)), fragment.StatusOwned)
		cp := p.Child(name, id)
		owned, _ := tx.tables()
		owned[cp.Key()] = true
		// A replica must receive the new node itself, not only the stub its
		// parent's local information now lists.
		tx.touched = append(tx.touched, cp)
	case OpDelIDable:
		name, id := args["name"], args["id"]
		child := n.Child(name, id)
		if child == nil {
			return fmt.Errorf("site %s: no child <%s id=%q> under %s", site, name, id, p)
		}
		cp := p.Child(name, id)
		// Every IDable node in the deleted subtree must be owned here. The
		// walk carries each node's ID path down with it: nodes of a
		// published version have no parent pointers to climb.
		var ownedBelow func(x *xmldb.Node, xp xmldb.IDPath) bool
		ownedBelow = func(x *xmldb.Node, xp xmldb.IDPath) bool {
			if !tx.owned[xp.Key()] {
				return false
			}
			for _, gc := range x.Children {
				if gc.ID() != "" && !ownedBelow(gc, xp.Child(gc.Name, gc.ID())) {
					return false
				}
			}
			return true
		}
		if id != "" && !ownedBelow(child, cp) {
			return fmt.Errorf("site %s: subtree %s has nodes owned elsewhere; migrate first", site, cp)
		}
		w.RemoveChild(n, child)
		owned, _ := tx.tables()
		maps.DeleteFunc(owned, func(k string, _ bool) bool { return keyUnder(k, cp.Key()) })
	default:
		return fmt.Errorf("site %s: unknown schema op %q", site, op)
	}
	fragment.SetTimestamp(n, c.TS)
	// A schema change can add or remove aggregate matches anywhere under the
	// changed node; flushing the summaries is simpler than reasoning per op.
	tx.touched, tx.reshaped = append(tx.touched, p), true
	return nil
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
// every other write it is one commit: the operation builds the next store
// version and publishes it together with any ownership-table change, so
// concurrent queries see either the old or the new schema, never a
// half-applied one, and read replicas of the node receive it.
func (s *Site) SchemaChange(op SchemaOp, p xmldb.IDPath, args map[string]string) error {
	lsn, err := s.commit(walOp{Op: opSchema, SchemaOp: string(op), Fields: args, path: p})
	if err != nil {
		return err
	}
	// The DNS registration below must not outrun the durable schema change.
	s.walWait(lsn)
	if op == OpAddIDable && s.cfg.Registry != nil {
		s.cfg.Registry.Set(naming.DNSName(p.Child(args["name"], args["id"]), s.cfg.Service), s.cfg.Name)
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
