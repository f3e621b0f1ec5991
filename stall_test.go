package spiralfft

import (
	"os"
	"runtime"
	"testing"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/smp"
)

// TestMain runs the package's tests with the stall guard off, so that every
// transform of a parallel plan dispatches onto its team. While the tests
// run the host may be loaded enough for a worker to pick up a region late;
// the stall mark that leaves would send the next transforms to the
// sequential program, and a fault aimed at worker 1 would miss.
// TestStalledTeamRunsSequentialProgram turns the guard on for itself.
func TestMain(m *testing.M) {
	smp.SetStallGuard(false)
	os.Exit(m.Run())
}

// forceLatePickup runs one region on b whose worker 1 cannot start before
// worker 0 has busy-run for 3 ms: with one processor, the caller keeps it
// through its own share.
func forceLatePickup(b smp.Backend) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.Run(func(w int) {
		if w == 0 {
			for start := time.Now(); time.Since(start) < 3*time.Millisecond; {
			}
		}
	})
}

// TestStalledTeamRunsSequentialProgram: after a worker of the shared team
// picks up a region late (its thread was descheduled), a parallel plan on
// that team computes its transforms with its sequential program, without
// dispatching a region, until the stall mark expires; then it dispatches
// onto the team again.
func TestStalledTeamRunsSequentialProgram(t *testing.T) {
	defer smp.SetStallGuard(smp.SetStallGuard(true))
	const n, cooldown = 1024, 100 * time.Millisecond
	p, err := NewPlan(n, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() {
		t.Fatalf("2-worker plan of %d is not parallel", n)
	}
	team := smp.Shared(2)
	x := complexvec.Random(n, 21)
	want := refDFT(x)
	y := make([]complex128, n)
	forward := func(what string) int64 {
		t.Helper()
		before := p.Snapshot().Pool.Regions
		if err := p.Forward(y, x); err != nil {
			t.Fatal(err)
		}
		if e := complexvec.RelError(y, want); e > 1e-12 {
			t.Fatalf("%s: relative error %g", what, e)
		}
		return p.Snapshot().Pool.Regions - before
	}
	waitUnstalled := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for smp.Stalled(team) {
			if time.Now().After(deadline) {
				t.Fatal("stall mark did not expire")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitUnstalled()
	late := p.Snapshot().Pool.LatePickups
	var start time.Time
	for i := 0; i < 5 && !smp.Stalled(team); i++ {
		start = time.Now()
		forceLatePickup(team)
	}
	if !smp.Stalled(team) {
		t.Fatal("a 3 ms late pickup did not stall the shared team")
	}
	if p.Snapshot().Pool.LatePickups <= late {
		t.Error("late pickup not counted in the plan's PoolStats")
	}
	// The mark holds until start+cooldown at the earliest.
	if d := forward("stalled"); d != 0 && time.Since(start) < cooldown {
		t.Errorf("stalled team: transform dispatched %d regions, want 0", d)
	}
	waitUnstalled()
	if d := forward("recovered"); d != 1 {
		t.Errorf("after the mark expired: transform dispatched %d regions, want 1", d)
	}
}
