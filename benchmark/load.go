package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"irisnet/internal/service"
)

// sample is one completed client operation.
type sample struct {
	end    int64 // ns since the loader's epoch
	dur    int64 // ns
	update bool
	failed bool
}

// client is one closed-loop load generator: one goroutine, one frontend, one
// random source. It owns the spaces whose index is congruent to its id, so
// the last value it saw acked for a space is the last value anyone wrote.
type client struct {
	id      int
	fe      *service.Frontend
	rng     *rand.Rand
	seq     int64
	samples []sample
	acked   map[int]string // space index -> last acked value
	errs    []string       // the first few failures, for the report
}

func (c *client) fail(format string, args ...any) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// opMix says what the clients send during one load phase.
type opMix struct {
	queryShare float64
	// pool draws queries from the loader's pool; otherwise each is a fresh
	// draw over the whole database.
	pool bool
	// exact checks every answer's node count against the reference; it is
	// only sound while no update is in flight. Otherwise answers get the
	// structural check alone.
	exact bool
}

// loader drives the clients against one harness.
type loader struct {
	h       *harness
	ref     *reference
	pool    []query
	clients []*client
	epoch   time.Time
	rec     *recorder // nil unless traced
	iters   int       // calls per replay loop
}

var (
	fieldsYes = map[string]string{"available": "yes"}
	fieldsNo  = map[string]string{"available": "no"}
)

func newLoader(h *harness, seed int64, nClients int) *loader {
	l := &loader{h: h, epoch: time.Now()}
	l.pool = buildPool(h.db, h.spec.fresh)
	for id := 0; id < nClients; id++ {
		l.clients = append(l.clients, &client{
			id:    id,
			fe:    h.newFrontend(),
			rng:   rand.New(rand.NewSource(seed*1000 + int64(id))),
			acked: map[int]string{},
		})
	}
	return l
}

func (l *loader) now() int64 { return int64(time.Since(l.epoch)) }

// one sends one operation and records its sample.
func (l *loader) one(c *client, mix opMix) {
	c.seq++
	ctx := context.Background()
	isQuery := mix.queryShare >= 1 || (mix.queryShare > 0 && c.rng.Float64() < mix.queryShare)
	var sp *spanRef
	if l.rec != nil {
		name := "update"
		if isQuery {
			name = "query"
		}
		sp = l.rec.beginOp(int64(c.id)<<40|c.seq, name)
		ctx = withSpan(ctx, sp)
	}
	var s sample
	if isQuery {
		var q query
		if mix.pool {
			q = l.pool[c.rng.Intn(len(l.pool))]
		} else {
			q = drawQuery(l.h.db, c.rng, drawType(c.rng), l.h.spec.fresh)
		}
		start := time.Now()
		ans, err := c.fe.QueryFull(ctx, q.text)
		s.dur = int64(time.Since(start))
		switch {
		case err != nil:
			s.failed = true
			c.fail("query failed: %v", err)
		case ans.Partial():
			s.failed = true
			c.fail("partial answer (unreachable %v) for %s", ans.Unreachable, q.text)
		default:
			if msg := l.checkAnswer(q, ans, mix.exact); msg != "" {
				s.failed = true
				c.fail("%s for %s", msg, q.text)
			}
		}
	} else {
		s.update = true
		n := len(l.h.db.SpacePaths) / len(l.clients)
		space := c.id + len(l.clients)*c.rng.Intn(n)
		value, fields := "yes", fieldsYes
		if c.rng.Intn(2) == 0 {
			value, fields = "no", fieldsNo
		}
		start := time.Now()
		err := c.fe.UpdateContext(ctx, l.h.db.SpacePaths[space], fields, nil)
		s.dur = int64(time.Since(start))
		if err != nil {
			s.failed = true
			c.fail("update failed: %v", err)
		} else {
			c.acked[space] = value
		}
	}
	s.end = l.now()
	if sp != nil {
		l.rec.end(sp, 0, 0, s.failed)
	}
	c.samples = append(c.samples, s)
}

// checkAnswer returns "" when the answer passes. Every node must be an
// available parking space; with exact, their number must equal the count
// xpatheval.Select gives on the central document.
func (l *loader) checkAnswer(q query, ans *service.Answer, exact bool) string {
	for _, n := range ans.Nodes {
		av := n.ChildNamed("available")
		if n.Name != "parkingSpace" || av == nil || av.Text != "yes" {
			return "answer holds a node that is not an available parkingSpace"
		}
	}
	if exact {
		if want := l.ref.expectCount(q); len(ans.Nodes) != want {
			return fmt.Sprintf("answer has %d nodes, reference has %d", len(ans.Nodes), want)
		}
	} else if most := len(q.blocks) * l.h.db.Cfg.Spaces; len(ans.Nodes) > most {
		return fmt.Sprintf("answer has %d nodes, its blocks hold %d spaces", len(ans.Nodes), most)
	}
	return ""
}

// counters is one reading of every whole-process and transport counter the
// end-to-end metrics are rates of.
type counters struct {
	t       int64 // ns since the loader's epoch
	mallocs uint64
	cpu     float64 // user+sys seconds
	calls   int64
	bytes   int64
	gcs     uint32
	gcPause uint64 // ns
}

func (l *loader) read() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return counters{
		t:       l.now(),
		mallocs: ms.Mallocs,
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		calls:   l.h.net.calls.Load(),
		bytes:   l.h.net.bytes.Load(),
		gcs:     ms.NumGC,
		gcPause: ms.PauseTotalNs,
	}
}

// phase is one measured window: the counters at its two ends.
type phase struct {
	first, last             counters
	sitesBefore, sitesAfter siteCounters
}

func (p *phase) start() int64     { return p.first.t }
func (p *phase) end() int64       { return p.last.t }
func (p *phase) seconds() float64 { return float64(p.last.t-p.first.t) / 1e9 }

// run drives every client with mix for warmup, then for a measured window of
// length timed, and stops the clients.
func (l *loader) run(mix opMix, warmup, timed time.Duration) *phase {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() {
				l.one(c, mix)
			}
		}(c)
	}
	time.Sleep(warmup)
	p := &phase{sitesBefore: l.h.counters(), first: l.read()}
	time.Sleep(timed)
	p.last = l.read()
	p.sitesAfter = l.h.counters()
	stop.Store(true)
	wg.Wait()
	return p
}

// counts tallies the operations that completed inside [from, to).
type counts struct {
	attempted, failed int64
	queryMS, updateMS []float64 // latencies of the successful ones
}

func (c counts) ok() int64 { return c.attempted - c.failed }

func (l *loader) tally(from, to int64) counts {
	var out counts
	for _, c := range l.clients {
		for _, s := range c.samples {
			if s.end < from || s.end >= to {
				continue
			}
			out.attempted++
			switch {
			case s.failed:
				out.failed++
			case s.update:
				out.updateMS = append(out.updateMS, float64(s.dur)/1e6)
			default:
				out.queryMS = append(out.queryMS, float64(s.dur)/1e6)
			}
		}
	}
	return out
}

// failures lists the first failures the clients saw.
func (l *loader) failures() []string {
	var out []string
	for _, c := range l.clients {
		out = append(out, c.errs...)
	}
	return out
}

// liveHeapMiB forces a collection and reads what survived it.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
