package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// workloadSpec is one named traffic mix with its deployment settings. The
// names and the "why" sentences are the ones BENCHMARK.json declares.
type workloadSpec struct {
	name string
	why  string
	// tcp runs the deployment on 127.0.0.1 sockets; otherwise zero-latency
	// SimNet.
	tcp bool
	// cacheBudget is site.Config.CacheBudgetBytes; zero leaves caches
	// unbounded.
	cacheBudget int64
	// durable gives every site a DataDir with strict group-commit fsync.
	durable bool
	// queryShare is the probability that an operation is a query; the rest
	// are sensor updates.
	queryShare float64
	// pool draws queries from a fixed pool of poolSize distinct queries;
	// otherwise every query is a fresh draw over the whole database.
	pool bool
	// fresh adds "and @ts >= now() - 2" inside every parkingSpace predicate.
	fresh bool
}

const (
	poolSize = 64
	// boundedCacheBytes is 49% of root-site's 609,575-byte working set and
	// 98% of each city site's: the working set exceeds the cache.
	boundedCacheBytes = 300000
	freshPredicate    = "available='yes' and @ts >= now() - 2"
	// freshTolerance is the staleness freshPredicate accepts.
	freshTolerance = 2 * time.Second
)

var workloads = []workloadSpec{
	{
		name:       "read_hot",
		why:        "64 repeated QW-Mix queries, unbounded cache: every query is one message answered locally, so decode, plan, evaluate, serialize and extract do all the work",
		queryShare: 1, pool: true,
	},
	{
		name:       "read_bounded",
		why:        "fresh QW-Mix draws over the whole DB with a 300000-byte cache: the working set exceeds the cache, so misses run dispatch, merge commit and eviction and set p99",
		queryShare: 1, cacheBudget: boundedCacheBytes,
	},
	{
		name:       "update_durable",
		why:        "100% sensor updates with WAL, strict group-commit fsync and 2s checkpoints: exercises the write commit path; the query plan and the cache do nothing",
		queryShare: 0, durable: true,
	},
	{
		name:       "mixed_fresh_tcp",
		why:        "80% QW-Mix queries with a 2s freshness tolerance plus 20% updates over TCP loopback: the paper's canonical load, where a read gain that costs writes shows",
		queryShare: 0.8, pool: true, fresh: true, tcp: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// block names one block of the parking database.
type block struct{ city, nb, blk int }

// query is one generated query with what is needed to check its answer.
type query struct {
	text   string
	blocks []block
}

// qwMix is the paper's QW-Mix: 40% type 1, 40% type 2, 15% type 3, 5% type 4.
var qwMix = [4]int{40, 40, 15, 5}

// drawQuery mirrors workload.Gen.Next for one given type, keeping the blocks
// the query names so its answer can be checked.
func drawQuery(db *workload.DB, rng *rand.Rand, typ int, fresh bool) query {
	cfg := db.Cfg
	var q query
	switch typ {
	case 1:
		b := block{rng.Intn(cfg.Cities), rng.Intn(cfg.Neighborhoods), rng.Intn(cfg.Blocks)}
		q = query{db.BlockQuery(b.city, b.nb, b.blk), []block{b}}
	case 2:
		b := block{rng.Intn(cfg.Cities), rng.Intn(cfg.Neighborhoods), rng.Intn(cfg.Blocks)}
		b2 := block{b.city, b.nb, (b.blk + 1) % cfg.Blocks}
		q = query{db.TwoBlockQuery(b.city, b.nb, b.blk, b2.blk), []block{b, b2}}
	case 3:
		b := block{rng.Intn(cfg.Cities), rng.Intn(cfg.Neighborhoods), rng.Intn(cfg.Blocks)}
		b2 := block{b.city, (b.nb + 1) % cfg.Neighborhoods, rng.Intn(cfg.Blocks)}
		q = query{db.TwoNeighborhoodQuery(b.city, b.nb, b.blk, b2.nb, b2.blk), []block{b, b2}}
	default:
		b := block{rng.Intn(cfg.Cities), rng.Intn(cfg.Neighborhoods), rng.Intn(cfg.Blocks)}
		b2 := block{(b.city + 1) % cfg.Cities, rng.Intn(cfg.Neighborhoods), rng.Intn(cfg.Blocks)}
		q = query{db.TwoCityQuery(b.city, b.nb, b.blk, b2.city, b2.nb, b2.blk), []block{b, b2}}
	}
	if fresh {
		q.text = strings.ReplaceAll(q.text, "available='yes'", freshPredicate)
	}
	return q
}

// drawType picks a query type with QW-Mix weights.
func drawType(rng *rand.Rand) int {
	x := rng.Intn(100)
	for i, w := range qwMix {
		if x < w {
			return i + 1
		}
		x -= w
	}
	return 1
}

// buildPool draws the fixed pool of poolSize distinct queries, each type in
// its QW-Mix share (26/25/10/3). The pool is the same for every run: it is
// drawn from the database's own seed, and --seed decides the order in which
// the clients visit it. Which blocks the pool holds moves every per-operation
// cost of mixed_fresh_tcp by a quarter (a type-3 query re-fetches as many
// spaces as its blocks have free), which would drown the differences between
// builds the benchmark exists to show; read_bounded is the workload whose
// queries change with the seed.
func buildPool(db *workload.DB, fresh bool) []query {
	rng := rand.New(rand.NewSource(db.Cfg.Seed))
	counts := [4]int{26, 25, 10, 3}
	seen := map[string]bool{}
	pool := make([]query, 0, poolSize)
	for typ, n := range counts {
		for added := 0; added < n; {
			q := drawQuery(db, rng, typ+1, fresh)
			if seen[q.text] {
				continue
			}
			seen[q.text] = true
			pool = append(pool, q)
			added++
		}
	}
	return pool
}

// reference answers queries on the central document, the ground truth the
// distributed answers are checked against. Acked updates are applied to it
// once the clients have stopped.
type reference struct {
	db  *workload.DB
	yes map[block]int // available='yes' spaces per block
}

func newReference(db *workload.DB) (*reference, error) {
	r := &reference{db: db, yes: map[block]int{}}
	return r, r.recount()
}

// recount recomputes every block's count with xpatheval.Select on the
// central document.
func (r *reference) recount() error {
	cfg := r.db.Cfg
	for c := 0; c < cfg.Cities; c++ {
		for n := 0; n < cfg.Neighborhoods; n++ {
			for b := 0; b < cfg.Blocks; b++ {
				nodes, err := r.selectNodes(r.db.BlockQuery(c, n, b))
				if err != nil {
					return err
				}
				r.yes[block{c, n, b}] = len(nodes)
			}
		}
	}
	return nil
}

// selectNodes evaluates a query centrally. Consistency predicates are
// stripped, as the front end does: freshness decides where data is read
// from, not which nodes qualify.
func (r *reference) selectNodes(q string) ([]*xmldb.Node, error) {
	expr, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	expr = xpath.StripConsistency(expr)
	return xpatheval.Select(expr, &xpatheval.Context{Root: r.db.Doc}, r.db.Doc)
}

// expectCount is the answer size of a generated query: its blocks are
// distinct, so the per-block counts add.
func (r *reference) expectCount(q query) int {
	n := 0
	for _, b := range q.blocks {
		n += r.yes[b]
	}
	return n
}

// apply writes an acked update into the central document.
func (r *reference) apply(p xmldb.IDPath, value string) error {
	n := xmldb.FindByIDPath(r.db.Doc, p)
	if n == nil {
		return fmt.Errorf("reference: no node at %s", p)
	}
	n.ChildNamed("available").Text = value
	return nil
}
