package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSimNetFaultDeterminism: two networks built with the same seed must
// produce identical drop/stall schedules for the same call sequence, even
// with different rates configured elsewhere — the per-site sources are
// independent.
func TestSimNetFaultDeterminism(t *testing.T) {
	run := func() []bool {
		n := NewSimNet(SimConfig{Seed: 1234})
		ok := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
		if err := n.Register("a", ok); err != nil {
			t.Fatal(err)
		}
		if err := n.Register("b", ok); err != nil {
			t.Fatal(err)
		}
		n.SetFaults("a", FaultConfig{DropRate: 0.5})
		n.SetFaults("b", FaultConfig{DropRate: 0.5})
		var pattern []bool
		for i := 0; i < 64; i++ {
			_, err := n.Call("a", nil)
			pattern = append(pattern, err == nil)
			_, err = n.Call("b", nil)
			pattern = append(pattern, err == nil)
		}
		return pattern
	}
	first := run()
	second := run()
	var dropped int
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("call %d: run1 ok=%v run2 ok=%v (schedules diverged)", i, first[i], second[i])
		}
		if !first[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(first) {
		t.Fatalf("dropped %d of %d calls; drop rate 0.5 should hit some but not all", dropped, len(first))
	}
}

// TestSimNetFaultSchedulesPerSite: different sites get different schedules
// from the same network seed (seeded by site name).
func TestSimNetFaultSchedulesPerSite(t *testing.T) {
	n := NewSimNet(SimConfig{Seed: 99})
	ok := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	for _, s := range []string{"a", "b"} {
		if err := n.Register(s, ok); err != nil {
			t.Fatal(err)
		}
		n.SetFaults(s, FaultConfig{DropRate: 0.5})
	}
	same := true
	for i := 0; i < 64; i++ {
		_, errA := n.Call("a", nil)
		_, errB := n.Call("b", nil)
		if (errA == nil) != (errB == nil) {
			same = false
		}
	}
	if same {
		t.Fatal("sites a and b produced identical 64-call fault schedules; per-site seeding is broken")
	}
}

func TestSimNetDroppedCallsAreRetryable(t *testing.T) {
	n := NewSimNet(SimConfig{Seed: 1})
	if err := n.Register("a", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	n.SetFaults("a", FaultConfig{DropRate: 1})
	_, err := n.Call("a", nil)
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if !Retryable(err) {
		t.Fatal("dropped messages must be retryable")
	}
}

func TestSimNetStall(t *testing.T) {
	n := NewSimNet(SimConfig{Seed: 1})
	if err := n.Register("a", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	n.SetFaults("a", FaultConfig{StallRate: 1, Stall: 30 * time.Millisecond})
	t0 := time.Now()
	if _, err := n.Call("a", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("stalled call returned in %v, want >= 30ms", d)
	}
}

// TestSimNetPartitionBlocksUntilDeadline: a partitioned site is a black
// hole — the call must hang until the context deadline, not fail fast.
func TestSimNetPartitionBlocksUntilDeadline(t *testing.T) {
	n := NewSimNet(SimConfig{})
	if err := n.Register("a", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	n.Partition("a")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := n.CallContext(ctx, "a", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(t0); d < 50*time.Millisecond {
		t.Fatalf("partitioned call failed after %v, want to block until the deadline", d)
	}
}

func TestSimNetHealReleasesBlockedCallers(t *testing.T) {
	n := NewSimNet(SimConfig{})
	if err := n.Register("a", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	n.Partition("a")
	done := make(chan error, 1)
	go func() {
		_, err := n.Call("a", nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("call returned %v before Heal", err)
	default:
	}
	n.Heal("a")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after heal: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call still blocked after Heal")
	}
}

// TestSimNetConcurrentChurn exercises Register/Unregister/Call/SetFaults
// concurrently; run with -race this is the transport's thread-safety test.
func TestSimNetConcurrentChurn(t *testing.T) {
	n := NewSimNet(SimConfig{Seed: 5})
	ok := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	if err := n.Register("stable", ok); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%d", i)
			for j := 0; j < 50; j++ {
				if err := n.Register(name, ok); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				_, _ = n.Call(name, []byte("x"))
				n.Unregister(name)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := n.Call("stable", []byte("y")); err != nil {
					t.Errorf("call stable: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			n.SetFaults("stable", FaultConfig{DropRate: 0})
			n.Partition("ghost")
			n.Heal("ghost")
		}
	}()
	wg.Wait()
}
