package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"irisnet/internal/cluster"
	"irisnet/internal/fragment"
	"irisnet/internal/service"
	"irisnet/internal/xmldb"
)

// verifyQueries is how many queries the full-answer comparison runs.
const verifyQueries = 200

// checks accumulates the outcome of the post-run correctness checks. Each
// comparison counts as one attempted operation, so a failed check shows in
// failed/attempted like a failed operation does.
type checks struct {
	attempted, failed int64
	msgs              []string
}

func (c *checks) pass() { c.attempted++ }

func (c *checks) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// applyAcked writes every client's last acked value per space into the
// central document and recounts. Clients own disjoint spaces, so the order
// across clients does not matter.
func (l *loader) applyAcked() error {
	for _, c := range l.clients {
		for space, value := range c.acked {
			if err := l.ref.apply(l.h.db.SpacePaths[space], value); err != nil {
				return err
			}
		}
	}
	return l.ref.recount()
}

// canonicalSet renders a node list as a sorted list of canonical XML
// strings. Timestamps are dropped: they are the owner's clock reading, which
// the central document does not have.
func canonicalSet(nodes []*xmldb.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		cp := n.Clone()
		cp.Walk(func(x *xmldb.Node) bool {
			x.DelAttr(xmldb.AttrTimestamp)
			return true
		})
		out[i] = cp.Canonical()
	}
	sort.Strings(out)
	return out
}

// missingFrom counts the strings of want that got lacks, and reports whether
// got holds anything want does not.
func missingFrom(got, want []string) (missing int, extra bool) {
	have := map[string]int{}
	for _, g := range got {
		have[g]++
	}
	for _, w := range want {
		if have[w] > 0 {
			have[w]--
		} else {
			missing++
		}
	}
	for _, n := range have {
		if n > 0 {
			extra = true
		}
	}
	return missing, extra
}

// compareAnswer runs one query through fe and compares the whole answer, as
// canonical XML, with the central document's. With subsetOK an answer that
// lacks some of the reference's nodes still passes, and the number it lacks
// is returned; a node the reference does not have never passes.
func (l *loader) compareAnswer(ck *checks, fe *service.Frontend, q string, subsetOK bool) int {
	want, err := l.ref.selectNodes(q)
	if err != nil {
		ck.fail("reference cannot answer %s: %v", q, err)
		return 0
	}
	ans, err := fe.QueryFull(context.Background(), q)
	if err != nil {
		ck.fail("verification query failed: %v (%s)", err, q)
		return 0
	}
	if ans.Partial() {
		ck.fail("verification query got a partial answer (%s)", q)
		return 0
	}
	missing, extra := missingFrom(canonicalSet(ans.Nodes), canonicalSet(want))
	if extra || (missing > 0 && !subsetOK) {
		ck.fail("answer differs from the central document: %d nodes, want %d, %d missing (%s)", len(ans.Nodes), len(want), missing, q)
		return 0
	}
	ck.pass()
	return missing
}

// verifyAnswers compares verifyQueries answers of the workload's own kind of
// query: the whole pool where there is one, and fresh draws for the rest.
// Only sound when every cache is coherent with the acked updates: before any
// update on the read workloads, after the caches were filled on
// update_durable, and with the freshness predicate once its tolerance has
// run out.
//
// With the freshness predicate, a query that enters at a site holding cached
// copies (types 3 and 4) is only required to return a subset of the
// reference: the engine tests available='yes' on the cached copy before it
// tests the copy's freshness, so a copy cached as 'no' hides a space that has
// since become 'yes' (a defect of the seed, recorded in BASELINE.md). The
// number of nodes lost that way is returned; queries answered by the owner
// (types 1 and 2) must match exactly.
func (l *loader) verifyAnswers(ck *checks, seed int64) (staleRejects int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var qs []query
	if l.h.spec.pool {
		qs = append(qs, l.pool...)
	}
	for len(qs) < verifyQueries {
		qs = append(qs, drawQuery(l.h.db, rng, drawType(rng), l.h.spec.fresh))
	}
	if l.h.spec.fresh {
		time.Sleep(freshTolerance + 100*time.Millisecond)
	}
	fe := l.clients[0].fe
	for _, q := range qs {
		oneOwner := true
		for _, b := range q.blocks {
			oneOwner = oneOwner && b.city == q.blocks[0].city && b.nb == q.blocks[0].nb
		}
		staleRejects += l.compareAnswer(ck, fe, q.text, l.h.spec.fresh && !oneOwner)
	}
	return staleRejects
}

// verifyInvariants runs fragment.CheckInvariants at every site. Values are
// compared too wherever the site holds no cached copies, which an update
// made after the copy was taken would legitimately leave behind.
func (l *loader) verifyInvariants(ck *checks) {
	for _, name := range l.h.names {
		s := l.h.sites[name]
		var owned []xmldb.IDPath
		for _, k := range s.OwnedPaths() {
			p, err := xmldb.ParseIDPath(k)
			if err != nil {
				ck.fail("site %s: owned path %q: %v", name, k, err)
				continue
			}
			owned = append(owned, p)
		}
		errs := fragment.CheckInvariants(s.StoreSnapshot(), l.h.db.Doc, owned, s.CachedFragments() == 0)
		if len(errs) > 0 {
			ck.fail("site %s: %d invariant violations, first: %v", name, len(errs), errs[0])
		} else {
			ck.pass()
		}
	}
}

// verifyReadBack reads every block back through root-site with a strict
// (no tolerance) predicate, which makes root-site fetch each space from its
// owner, and compares with the central document holding every client's last
// acked value. A lost acked update shows here.
func (l *loader) verifyReadBack(ck *checks) {
	fe := l.h.newFrontend()
	fe.ForceEntry = cluster.RootSiteName
	cfg := l.h.db.Cfg
	for c := 0; c < cfg.Cities; c++ {
		for n := 0; n < cfg.Neighborhoods; n++ {
			for b := 0; b < cfg.Blocks; b++ {
				q := strings.ReplaceAll(l.h.db.BlockQuery(c, n, b), "available='yes'", "@ts >= now()")
				l.compareAnswer(ck, fe, q, false)
			}
		}
	}
}

// ownedImage renders every owned node's local information at every site.
func (l *loader) ownedImage() map[string]string {
	img := map[string]string{}
	for _, name := range l.h.names {
		s := l.h.sites[name]
		store := s.StoreSnapshot()
		for _, k := range s.OwnedPaths() {
			p, err := xmldb.ParseIDPath(k)
			if err != nil {
				continue
			}
			if n := store.NodeAt(p); n != nil {
				img[name+" "+k] = fragment.LocalInfo(n).String()
			}
		}
	}
	return img
}

// crashRecover kills every site without a final fsync or checkpoint, starts
// them again from what their data directories hold, and requires the owned
// stores to come back byte-identical. It returns the time from the first
// restart to the last site serving again.
func (l *loader) crashRecover(ck *checks) float64 {
	before := l.ownedImage()
	for _, name := range l.h.names {
		l.h.sites[name].Crash()
	}
	t0 := time.Now()
	for _, name := range l.h.names {
		if err := l.h.startSite(name); err != nil {
			ck.fail("restart after crash: %v", err)
			return 0
		}
	}
	seconds := time.Since(t0).Seconds()
	after := l.ownedImage()
	diff := 0
	for k, v := range before {
		if after[k] != v {
			diff++
		}
	}
	if diff > 0 || len(after) != len(before) {
		ck.fail("recovery: %d of %d owned nodes differ from before the crash (%d after)", diff, len(before), len(after))
	} else {
		ck.pass()
	}
	return seconds
}
