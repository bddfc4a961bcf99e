package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"irisnet/internal/xmldb"
)

// Continuous queries — the first extension the paper's conclusion calls
// out ("Continuous queries are an important class of queries that are
// natural to a sensor database system. Our architecture naturally allows
// us to support [them]"). A Watch re-runs a standing query and delivers a
// notification whenever its answer changes; combined with query-driven
// caching, repeated evaluations are served close to the watcher while
// freshness tolerances in the query bound staleness.

// DefaultWatchFailureBudget is how many consecutive evaluation failures a
// watch tolerates before terminating, when Frontend.WatchFailureBudget is
// zero. Wide-area evaluations fail transiently (a site restarting, a lost
// packet); a single such failure must not kill a standing query.
const DefaultWatchFailureBudget = 5

// Change describes one transition of a watched query's answer.
type Change struct {
	// Seq increments per delivered change, starting at 1 (the initial
	// answer is delivered as the first change from an empty answer).
	Seq int
	// Added and Removed are the result subtrees (canonical XML) that
	// entered and left the answer.
	Added   []string
	Removed []string
	// Answer is the full current result set.
	Answer []*xmldb.Node
	// Partial marks an answer some subtrees of which could not be reached
	// or that was truncated; the watch keeps running and delivers it with
	// the provenance attached rather than tearing down.
	Partial bool
	// Unreachable lists the subtree paths that did not converge, when
	// Partial is set for that reason.
	Unreachable []string
}

// Watch is a standing query handle.
type Watch struct {
	C <-chan Change

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	err      error
}

// Stop cancels the watch and waits for the poller to exit.
func (w *Watch) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Err reports the error that terminated the watch, if any.
func (w *Watch) Err() error {
	select {
	case <-w.done:
		return w.err
	default:
		return nil
	}
}

// WatchQuery registers a continuous query: the query is evaluated every
// interval and a Change is delivered whenever the answer set differs from
// the last answer the consumer received. Slow consumers do not block the
// poller; an unread change is reclaimed and its delta folded into the next
// delivery, so the consumer always sees the full difference against its own
// last observation — deltas are coalesced, never lost. Transient evaluation
// failures are retried up to Frontend.WatchFailureBudget consecutive times
// before the watch terminates; partial answers are delivered with their
// unreachable-subtree provenance instead of tearing the watch down.
func (f *Frontend) WatchQuery(query string, interval time.Duration) (*Watch, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("service: watch interval must be positive")
	}
	// Validate the query up front so misuse fails fast.
	if _, _, err := f.RouteOf(query); err != nil {
		return nil, err
	}
	budget := f.WatchFailureBudget
	if budget <= 0 {
		budget = DefaultWatchFailureBudget
	}
	ch := make(chan Change, 1)
	w := &Watch{C: ch, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		// done closes before C: a consumer that sees C closed must find the
		// terminal error in Err, which reads it only once done is closed.
		defer close(ch)
		defer close(w.done)
		// baseline is the answer set the consumer has seen (delivered and
		// read); pending is the set encoded in a sent-but-possibly-unread
		// change, nil when nothing is in flight.
		baseline := map[string]bool{}
		var pending map[string]bool
		seq := 0
		failures := 0
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for first := true; ; first = false {
			if !first {
				select {
				case <-w.stop:
					return
				case <-tick.C:
				}
			}
			ans, err := f.QueryFull(context.Background(), query)
			if err != nil {
				failures++
				if failures >= budget {
					w.err = fmt.Errorf("service: watch %q: %d consecutive failures: %w",
						query, failures, err)
					return
				}
				continue
			}
			failures = 0
			cur := map[string]bool{}
			for _, n := range ans.Nodes {
				cur[n.Canonical()] = true
			}
			// Settle the in-flight change: if the consumer read it, its set
			// becomes the baseline; if not, reclaim it so its delta folds
			// into the diff below instead of being dropped.
			if pending != nil {
				select {
				case <-ch:
				default:
					baseline = pending
				}
				pending = nil
			}
			added, removed := diffSets(baseline, cur)
			if len(added) == 0 && len(removed) == 0 {
				continue
			}
			seq++
			change := Change{Seq: seq, Added: added, Removed: removed, Answer: ans.Nodes,
				Partial: ans.Partial(), Unreachable: ans.Unreachable}
			// Cannot block: this goroutine is the sole sender and the
			// one-slot buffer was just drained or observed empty.
			ch <- change
			pending = cur
		}
	}()
	return w, nil
}

func diffSets(prev, cur map[string]bool) (added, removed []string) {
	for k := range cur {
		if !prev[k] {
			added = append(added, k)
		}
	}
	for k := range prev {
		if !cur[k] {
			removed = append(removed, k)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}
