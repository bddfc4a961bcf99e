package qeg

import (
	"fmt"
	"sync"
	"testing"
)

// Regression test for the Compiler.cache data race: the plan cache used to
// be a plain map written without synchronization, so concurrent queries on
// one site could corrupt it. Run under -race this fails on the old code.
func TestCompileConcurrent(t *testing.T) {
	c := NewCompiler(parkingSchema(), false)
	queries := []string{
		figure2Query,
		"/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']",
		"/usRegion[@id='NE']/state[@id='PA']",
	}
	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w+i)%len(queries)]
				plans, err := c.Compile(q)
				if err != nil {
					errs <- fmt.Errorf("worker %d: Compile(%q): %w", w, q, err)
					return
				}
				if len(plans) == 0 {
					errs <- fmt.Errorf("worker %d: Compile(%q) returned no plans", w, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// After the dust settles the cache serves one stable template set per
	// query shape.
	for _, q := range queries {
		p1, err := c.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := c.Compile(q)
		if p1[0].template != p2[0].template {
			t.Errorf("plans for %q not cached after concurrent compilation", q)
		}
	}
}
