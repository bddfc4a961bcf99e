// Package transport moves request/response messages between sites. Two
// implementations are provided: SimNet, an in-process network with a
// configurable latency model (the benchmark substrate standing in for the
// paper's LAN cluster), and TCPNet, a real TCP transport for the cmd/
// deployment tools. Both carry opaque byte payloads; message encoding
// belongs to the site layer.
//
// Because the paper's setting is a wide-area deployment ("sites may be
// spread over thousands of miles"), the transport also carries the failure
// model: every call accepts a context deadline, SimNet can inject drops,
// stalls and partitions (seeded, for deterministic tests), and the Caller
// wrapper in resilient.go adds retries with backoff and a retry budget.
package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one request payload and returns the response payload.
// The context carries the caller's deadline; long-running handlers should
// pass it down to any nested calls they make.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// Network is the transport abstraction sites and frontends use.
type Network interface {
	// Call sends a request to the named site and blocks for its response.
	// Equivalent to CallContext with a background context (no deadline).
	Call(site string, payload []byte) ([]byte, error)
	// CallContext is Call bounded by the context: when the context expires
	// or is canceled before the response arrives, the call fails with the
	// context's error and the response (if any) is discarded.
	CallContext(ctx context.Context, site string, payload []byte) ([]byte, error)
	// Register attaches the handler serving a site name.
	Register(site string, h Handler) error
	// Unregister detaches a site (shutdown).
	Unregister(site string)
}

// ErrDropped marks a message lost to an injected fault. Like a real lost
// datagram it is transient: the same call may succeed when retried.
var ErrDropped = errors.New("transport: message dropped")

// Retryable reports whether a failed call is worth retrying. Cancellation
// is not: the caller gave up. Everything else — drops, stalls that ran
// into a per-attempt deadline, dial errors, a site momentarily missing
// during a restart or migration — is transient in a wide-area deployment.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// SimConfig tunes the simulated network.
type SimConfig struct {
	// Latency is the one-way network delay per message.
	Latency time.Duration
	// Seed feeds the fault sources; 0 uses a fixed default.
	Seed int64
}

// FaultConfig injects failures on the path to one site. Drops and stalls
// are drawn per call from a per-site seeded source, so two networks built
// with the same SimConfig.Seed see the same fault schedule per site.
type FaultConfig struct {
	// DropRate is the probability a call is lost: it fails with ErrDropped
	// after the one-way latency (the caller learns nothing sooner, just as
	// with a real lost message).
	DropRate float64
	// StallRate is the probability a call is delayed by Stall before
	// delivery, modeling a slow or overloaded remote site.
	StallRate float64
	// Stall is the extra delay applied to stalled calls.
	Stall time.Duration
}

// faultState is the per-site fault machinery: an independent seeded source
// (so one site's schedule does not depend on traffic to others) plus the
// partition flag.
type faultState struct {
	mu   sync.Mutex
	cfg  FaultConfig
	rng  *rand.Rand
	heal chan struct{} // non-nil while partitioned; closed by Heal
}

// draw samples this call's fate. Both decisions are always drawn so the
// schedule stays aligned across runs regardless of configured rates.
func (f *faultState) draw() (drop bool, stall time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	drop = f.rng.Float64() < f.cfg.DropRate
	if f.rng.Float64() < f.cfg.StallRate {
		stall = f.cfg.Stall
	}
	return drop, stall
}

// awaitHeal blocks while the site is partitioned: a partitioned site is a
// black hole, so callers hang until the partition heals or their context
// expires — exactly the failure mode deadlines exist for.
func (f *faultState) awaitHeal(ctx context.Context) error {
	f.mu.Lock()
	ch := f.heal
	f.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-ch:
		return nil
	}
}

// SimNet is an in-process Network: calls are delivered to registered
// handlers after the configured latency, and responses return after the
// same latency, mimicking a request/response round trip on a LAN or WAN.
type SimNet struct {
	cfg  SimConfig
	seed int64

	mu       sync.RWMutex
	handlers map[string]Handler
	faults   map[string]*faultState

	// Traffic accounting: bytes and messages that completed a delivery
	// (request payload plus response), read by benchmarks comparing the
	// wire cost of strategies (e.g. raw gather vs pushed-down aggregation).
	bytesTotal atomic.Int64
	msgsTotal  atomic.Int64
}

// NewSimNet creates a simulated network.
func NewSimNet(cfg SimConfig) *SimNet {
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	return &SimNet{
		cfg:      cfg,
		seed:     seed,
		handlers: map[string]Handler{},
		faults:   map[string]*faultState{},
	}
}

// Register implements Network.
func (n *SimNet) Register(site string, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[site]; dup {
		return fmt.Errorf("transport: site %q already registered", site)
	}
	n.handlers[site] = h
	return nil
}

// Unregister implements Network.
func (n *SimNet) Unregister(site string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, site)
}

// SetFaults installs (or replaces) the fault configuration for calls to one
// site. The site's fault schedule is seeded from SimConfig.Seed and the
// site name, so it is reproducible and independent of other traffic.
func (n *SimNet) SetFaults(site string, cfg FaultConfig) {
	fs := n.faultStateFor(site)
	fs.mu.Lock()
	fs.cfg = cfg
	fs.mu.Unlock()
}

// Partition cuts the site off: calls to it block (a partitioned site is a
// black hole, not a fast failure) until the caller's context expires or
// Heal is called. Partitioning an already-partitioned site is a no-op.
func (n *SimNet) Partition(site string) {
	fs := n.faultStateFor(site)
	fs.mu.Lock()
	if fs.heal == nil {
		fs.heal = make(chan struct{})
	}
	fs.mu.Unlock()
}

// Heal reconnects a partitioned site, releasing blocked callers.
func (n *SimNet) Heal(site string) {
	fs := n.faultStateFor(site)
	fs.mu.Lock()
	if fs.heal != nil {
		close(fs.heal)
		fs.heal = nil
	}
	fs.mu.Unlock()
}

// faultStateFor returns (creating on first use) the site's fault state.
func (n *SimNet) faultStateFor(site string) *faultState {
	n.mu.Lock()
	defer n.mu.Unlock()
	fs, ok := n.faults[site]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(site))
		fs = &faultState{rng: rand.New(rand.NewSource(n.seed ^ int64(h.Sum64())))}
		n.faults[site] = fs
	}
	return fs
}

// Call implements Network.
func (n *SimNet) Call(site string, payload []byte) ([]byte, error) {
	return n.CallContext(context.Background(), site, payload)
}

// CallContext implements Network.
func (n *SimNet) CallContext(ctx context.Context, site string, payload []byte) ([]byte, error) {
	n.mu.RLock()
	h, ok := n.handlers[site]
	fs := n.faults[site]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown site %q", site)
	}
	if fs != nil {
		if err := fs.awaitHeal(ctx); err != nil {
			return nil, err
		}
		drop, stall := fs.draw()
		if stall > 0 {
			if err := sleepCtx(ctx, stall); err != nil {
				return nil, err
			}
		}
		if drop {
			// The message leaves and vanishes: the caller pays the one-way
			// latency before learning anything went wrong.
			if err := n.sleepOneWay(ctx); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w en route to %q", ErrDropped, site)
		}
	}
	if err := n.sleepOneWay(ctx); err != nil {
		return nil, err
	}
	resp, err := h(ctx, payload)
	if err != nil {
		return nil, err
	}
	if err := n.sleepOneWay(ctx); err != nil {
		return nil, err
	}
	n.bytesTotal.Add(int64(len(payload) + len(resp)))
	n.msgsTotal.Add(1)
	return resp, nil
}

// BytesTotal returns the cumulative payload bytes (requests plus responses)
// of every completed call on this network.
func (n *SimNet) BytesTotal() int64 { return n.bytesTotal.Load() }

// MessagesTotal returns the number of completed calls on this network.
func (n *SimNet) MessagesTotal() int64 { return n.msgsTotal.Load() }

// ResetTraffic zeroes the traffic counters (benchmark arms reset between
// phases).
func (n *SimNet) ResetTraffic() {
	n.bytesTotal.Store(0)
	n.msgsTotal.Store(0)
}

func (n *SimNet) sleepOneWay(ctx context.Context) error {
	return sleepCtx(ctx, n.cfg.Latency)
}

// sleepCtx sleeps for d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// CPU models one site's processing capacity: a semaphore with as many
// slots as the machine has worker threads (the paper's single-CPU Pentium
// boxes map to one slot). CPU-bound phases of request handling run inside
// Do; network waits happen outside it so a blocked subquery does not
// consume local capacity.
type CPU struct {
	sem chan struct{}
}

// NewCPU creates a capacity gate with the given slot count (min 1).
func NewCPU(slots int) *CPU {
	if slots < 1 {
		slots = 1
	}
	return &CPU{sem: make(chan struct{}, slots)}
}

// Do runs fn while holding one CPU slot.
func (c *CPU) Do(fn func()) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	fn()
}

// Acquire takes a slot explicitly (pair with Release).
func (c *CPU) Acquire() { c.sem <- struct{}{} }

// Release returns a slot.
func (c *CPU) Release() { <-c.sem }
