package qeg

import (
	"fmt"
	"sync"
	"testing"
)

// Regression test for unbounded plan-cache growth: an ad-hoc query workload
// (every query of a distinct shape) used to leave one cache entry per query
// forever. The clock policy must keep the entry count at the cap. Queries
// that differ only in their ids share a shape, so the texts differ in a
// non-id literal.
func TestPlanCacheBounded(t *testing.T) {
	c := NewCompiler(parkingSchema(), false)
	n := 2*DefaultPlanCacheCap + 7
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("/usRegion[@id='NE']/state[@id='PA'][@zip='%d']", i)
		if _, err := c.Compile(q); err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
	}
	if got := c.Shapes(); got > DefaultPlanCacheCap {
		t.Fatalf("plan cache grew to %d entries, cap is %d", got, DefaultPlanCacheCap)
	}
	if got := c.Shapes(); got < DefaultPlanCacheCap/2 {
		t.Fatalf("plan cache kept only %d entries; sweep is too aggressive for cap %d", got, DefaultPlanCacheCap)
	}

	// A hot query keeps working (and re-caches) after churn.
	q := "/usRegion[@id='NE']/state[@id='PA']"
	p1, err := c.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := c.Compile(q)
	if p1[0].template != p2[0].template {
		t.Fatal("hot query not served from cache after churn")
	}
}

// TestPlanCacheBoundedConcurrent drives inserts from many goroutines so the
// clock sweep races LoadOrStore; under -race this doubles as a safety check
// for the lock-free hit path.
func TestPlanCacheBoundedConcurrent(t *testing.T) {
	c := NewCompiler(parkingSchema(), false)
	const workers = 8
	perWorker := DefaultPlanCacheCap/2 + 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := fmt.Sprintf("/usRegion[@id='NE']/state[@zip='W%dQ%d']", w, i)
				if _, err := c.Compile(q); err != nil {
					t.Errorf("Compile(%q): %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Concurrent inserts may overshoot by in-flight entries, never by more
	// than one per racing worker.
	if got := c.Shapes(); got > DefaultPlanCacheCap+workers {
		t.Fatalf("plan cache at %d entries after concurrent churn, cap is %d", got, DefaultPlanCacheCap)
	}
}
