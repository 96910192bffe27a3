package tune

import (
	"strings"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/stm"
)

// feed records n synthetic committed blocks on sh, each with the
// given grace wait and total duration — what the runtime observes
// when a block commits.
func feed(sh *metrics.Shard, n int, graceNs, durNs int64) {
	for i := 0; i < n; i++ {
		if graceNs > 0 {
			sh.ObserveGrace(graceNs)
		}
		sh.ObserveCommit(durNs)
	}
}

// delta snapshots p and returns the difference from prev, plus the new
// snapshot for the next window.
func delta(p *metrics.Plane, prev metrics.PlaneSnapshot) (metrics.PlaneSnapshot, metrics.PlaneSnapshot) {
	cur := p.Snapshot()
	return cur.Sub(prev), cur
}

// TestWindowFromPlane checks the window math over plane deltas: each
// field reads the right plane observation, a user abort adds nothing
// to the committed-block time, and GraceFrac/CommitsPerSec divide
// correctly.
func TestWindowFromPlane(t *testing.T) {
	p := metrics.NewPlane(2, 0)
	sh := p.Shard(0)
	feed(sh, 1, 100, 1000)
	sh.Count(metrics.EventKill, 1)
	// An explicit user abort: an attempt and a taxonomy entry, no
	// commit observation.
	sh.ObserveAttempt(500)
	sh.Abort(metrics.AbortExplicit)

	d, prev := delta(p, metrics.PlaneSnapshot{})
	w := windowOf(&d, time.Second)
	want := Window{Commits: 1, KillsIssued: 1, GraceWaitNs: 100, DurNs: 1000, Elapsed: time.Second}
	w.CommitP50Ns, w.CommitP99Ns = 0, 0
	if w != want {
		t.Fatalf("window = %+v, want %+v", w, want)
	}

	// Window math over a delta, fed from another worker's shard.
	feed(p.Shard(1), 3, 50, 100)
	d, _ = delta(p, prev)
	w = windowOf(&d, time.Second)
	if w.Commits != 3 || w.KillsIssued != 0 || w.GraceWaitNs != 150 || w.DurNs != 300 {
		t.Fatalf("window = %+v", w)
	}
	if got := w.GraceFrac(); got != 0.5 {
		t.Fatalf("GraceFrac = %v, want 0.5", got)
	}
	if got := w.CommitsPerSec(); got != 3 {
		t.Fatalf("CommitsPerSec = %v, want 3", got)
	}
	if got := (Window{}).GraceFrac(); got != 0 {
		t.Fatalf("idle GraceFrac = %v, want 0", got)
	}
}

// TestWindowCommitQuantiles checks the commit-latency feed: only
// commits are observed, and two snapshots difference into a windowed
// distribution with quantiles near the fed durations.
func TestWindowCommitQuantiles(t *testing.T) {
	p := metrics.NewPlane(1, 0)
	sh := p.Shard(0)
	feed(sh, 10, 0, 1000)
	sh.ObserveAttempt(1 << 40) // an aborted attempt: not a commit latency
	sh.Abort(metrics.AbortKilled)
	d, prev := delta(p, metrics.PlaneSnapshot{})
	w := windowOf(&d, time.Second)
	if w.Commits != 10 {
		t.Fatalf("commits = %d, want 10 (aborts must not observe)", w.Commits)
	}
	if q := w.CommitP99Ns; q < 1000*(1-1.0/16) || q > 1000*(1+1.0/16) {
		t.Fatalf("p99 = %v, want ~1000 within bucket error", q)
	}

	feed(sh, 5, 0, 8000)
	d, _ = delta(p, prev)
	w = windowOf(&d, time.Second)
	if w.Commits != 5 {
		t.Fatalf("window delta commits = %d, want 5", w.Commits)
	}
	if q := w.CommitP50Ns; q < 8000*(1-1.0/16) || q > 8000*(1+1.0/16) {
		t.Fatalf("windowed p50 = %v, want ~8000", q)
	}
}

// activeWindow is a Window busy enough to pass the MinWindowCommits
// gate, with conflict evidence so the regime rules engage.
func activeWindow(graceFrac float64) Window {
	const dur = 1_000_000
	return Window{
		Commits:     1000,
		GraceWaitNs: uint64(graceFrac * dur),
		DurNs:       dur,
		Elapsed:     time.Second,
	}
}

func basePolicy() stm.Policy {
	return stm.Policy{Resolution: core.RequestorAborts, KWindow: 64, BackoffFactor: 1}
}

func TestControllerThinWindowSkipped(t *testing.T) {
	c := NewController(Limits{})
	w := activeWindow(0.1)
	w.Commits = 10 // below MinWindowCommits
	p, reasons := c.Decide(w, 5, true, basePolicy())
	if len(reasons) != 0 || p != basePolicy() {
		t.Fatalf("thin window decided: %v", reasons)
	}
}

func TestControllerBootstrapsEstimator(t *testing.T) {
	c := NewController(Limits{})
	cur := basePolicy()
	cur.KWindow = 0
	p, reasons := c.Decide(activeWindow(0.1), 0, true, cur)
	if p.KWindow != DefaultLimits().KWindowMin {
		t.Fatalf("KWindow = %d, want %d", p.KWindow, DefaultLimits().KWindowMin)
	}
	if len(reasons) != 1 || !strings.Contains(reasons[0], "bootstrap") {
		t.Fatalf("reasons = %v", reasons)
	}
}

func TestControllerRegimeFlip(t *testing.T) {
	c := NewController(Limits{})

	// Long chains: flip RA -> RW.
	p, reasons := c.Decide(activeWindow(0.1), 3.0, true, basePolicy())
	if p.Resolution != core.RequestorWins || p.Strategy == nil || p.Strategy.Name() != "RRW" {
		t.Fatalf("k=3.0 policy = %s, want requestor-wins/RRW (%v)", p, reasons)
	}

	// Pair conflicts: flip RW -> RA.
	cur := basePolicy()
	cur.Resolution = core.RequestorWins
	p, _ = c.Decide(activeWindow(0.1), 2.0, true, cur)
	if p.Resolution != core.RequestorAborts || p.Strategy == nil || p.Strategy.Name() != "RRA" {
		t.Fatalf("k=2.0 policy = %s, want requestor-aborts/RRA", p)
	}

	// Hysteresis band: k between KLow and KHigh keeps the current
	// choice, in both directions.
	for _, res := range []core.Policy{core.RequestorAborts, core.RequestorWins} {
		cur := basePolicy()
		cur.Resolution = res
		p, reasons := c.Decide(activeWindow(0.1), 2.35, true, cur)
		if p.Resolution != res {
			t.Fatalf("k=2.35 flipped %v -> %v (%v)", res, p.Resolution, reasons)
		}
	}

	// No conflict evidence in the window: a 0 estimate must not force
	// a flip.
	w := activeWindow(0)
	w.GraceWaitNs, w.KillsIssued = 0, 0
	cur = basePolicy()
	cur.Resolution = core.RequestorWins
	p, _ = c.Decide(w, 0, true, cur)
	if p.Resolution != core.RequestorWins {
		t.Fatal("idle window flipped the resolution policy")
	}
}

func TestControllerBatchLane(t *testing.T) {
	c := NewController(Limits{})

	// Heavy grace waiting on a lazy runtime opens the lane.
	p, reasons := c.Decide(activeWindow(0.5), 2.35, true, basePolicy())
	if p.CommitBatch != DefaultLimits().BatchSize {
		t.Fatalf("CommitBatch = %d, want %d (%v)", p.CommitBatch, DefaultLimits().BatchSize, reasons)
	}

	// Contention gone: close it.
	cur := basePolicy()
	cur.CommitBatch = 4
	p, _ = c.Decide(activeWindow(0.01), 2.35, true, cur)
	if p.CommitBatch != 0 {
		t.Fatalf("CommitBatch = %d after contention dropped, want 0", p.CommitBatch)
	}

	// In between: hold.
	cur.CommitBatch = 4
	p, reasons = c.Decide(activeWindow(0.1), 2.35, true, cur)
	if p.CommitBatch != 4 || len(reasons) != 0 {
		t.Fatalf("mid-band changed lane: %d (%v)", p.CommitBatch, reasons)
	}

	// Eager runtimes never get a lane.
	p, _ = c.Decide(activeWindow(0.5), 2.35, false, basePolicy())
	if p.CommitBatch != 0 {
		t.Fatal("controller opened a combiner lane on an eager runtime")
	}
}

func TestControllerKWindowResize(t *testing.T) {
	c := NewController(Limits{})

	// Four noisy window means: grow.
	var p stm.Policy
	for i, k := range []float64{2.3, 4.5, 2.3, 4.5} {
		p, _ = c.Decide(activeWindow(0.1), k, true, basePolicy())
		if i < 3 && p.KWindow != 64 {
			t.Fatalf("resized after only %d samples", i+1)
		}
	}
	if p.KWindow != 128 {
		t.Fatalf("KWindow = %d after noisy means, want 128", p.KWindow)
	}

	// Four near-identical means on a large window: shrink.
	c = NewController(Limits{})
	cur := basePolicy()
	cur.KWindow = 256
	for _, k := range []float64{2.35, 2.36, 2.35, 2.36} {
		p, _ = c.Decide(activeWindow(0.1), k, true, cur)
	}
	if p.KWindow != 128 {
		t.Fatalf("KWindow = %d after stable means, want 128", p.KWindow)
	}

	// Never below the floor.
	c = NewController(Limits{})
	cur.KWindow = DefaultLimits().KWindowMin
	for _, k := range []float64{2.35, 2.36, 2.35, 2.36} {
		p, _ = c.Decide(activeWindow(0.1), k, true, cur)
	}
	if p.KWindow != DefaultLimits().KWindowMin {
		t.Fatalf("KWindow = %d, shrank below the floor", p.KWindow)
	}
}

// latWindow is an activeWindow carrying synthetic commit-latency
// quantiles, with grace fraction and k pinned inside both hysteresis
// bands so only the p99 rule can fire.
func latWindow(p99 float64, commits uint64) Window {
	w := activeWindow(0.1)
	w.Commits = commits
	w.CommitP50Ns = p99 / 2
	w.CommitP99Ns = p99
	return w
}

func TestControllerP99Backoff(t *testing.T) {
	const kMid = 2.35 // inside the KLow..KHigh band: no regime flip

	// Degraded tail with flat throughput halves an open lane.
	c := NewController(Limits{})
	cur := basePolicy()
	cur.CommitBatch = 8
	for i := 0; i < 3; i++ { // seed the baseline, then hold steady
		p, reasons := c.Decide(latWindow(100_000, 1000), kMid, true, cur)
		if len(reasons) != 0 || p != cur {
			t.Fatalf("stable window %d decided: %v", i, reasons)
		}
	}
	p, reasons := c.Decide(latWindow(400_000, 1000), kMid, true, cur)
	if len(reasons) != 1 || !strings.Contains(reasons[0], "p99") {
		t.Fatalf("degraded window reasons = %v, want one p99 reason", reasons)
	}
	if p.CommitBatch != 4 {
		t.Fatalf("CommitBatch = %d after p99 backoff, want 4", p.CommitBatch)
	}
	// The rule re-baselined: the same degraded window seeds a fresh
	// baseline instead of firing again.
	if _, reasons := c.Decide(latWindow(400_000, 1000), kMid, true, p); len(reasons) != 0 {
		t.Fatalf("re-baseline failed, fired twice: %v", reasons)
	}

	// A throughput gain above the flat tolerance vetoes the rule:
	// the tail is paying for itself in commits.
	c = NewController(Limits{})
	c.Decide(latWindow(100_000, 1000), kMid, true, cur)
	p, reasons = c.Decide(latWindow(400_000, 2000), kMid, true, cur)
	if len(reasons) != 0 || p != cur {
		t.Fatalf("p99 rule fired despite 2x throughput: %v", reasons)
	}

	// Without an open lane the actuator is the grace budget: double
	// CleanupCost from the 64µs floor, capped at CleanupCostMax.
	c = NewController(Limits{})
	unbatched := basePolicy()
	c.Decide(latWindow(100_000, 1000), kMid, true, unbatched)
	p, reasons = c.Decide(latWindow(400_000, 1000), kMid, true, unbatched)
	if len(reasons) != 1 || !strings.Contains(reasons[0], "p99") {
		t.Fatalf("unbatched degraded window reasons = %v", reasons)
	}
	if p.CleanupCost != 64*time.Microsecond {
		t.Fatalf("CleanupCost = %v, want 64µs floor", p.CleanupCost)
	}
	c = NewController(Limits{})
	unbatched.CleanupCost = 400 * time.Microsecond
	c.Decide(latWindow(100_000, 1000), kMid, true, unbatched)
	p, _ = c.Decide(latWindow(400_000, 1000), kMid, true, unbatched)
	if p.CleanupCost != DefaultLimits().CleanupCostMax {
		t.Fatalf("CleanupCost = %v, want cap %v", p.CleanupCost, DefaultLimits().CleanupCostMax)
	}
	// Already at the cap: nothing left to actuate, no decision.
	c = NewController(Limits{})
	unbatched.CleanupCost = DefaultLimits().CleanupCostMax
	c.Decide(latWindow(100_000, 1000), kMid, true, unbatched)
	if _, reasons := c.Decide(latWindow(400_000, 1000), kMid, true, unbatched); len(reasons) != 0 {
		t.Fatalf("decided at the actuator cap: %v", reasons)
	}

	// A window whose quantiles are zero (no histogram feed) must
	// neither fire nor disturb the baselines.
	c = NewController(Limits{})
	c.Decide(latWindow(100_000, 1000), kMid, true, cur)
	c.Decide(activeWindow(0.1), kMid, true, cur) // quantile-free window
	p, reasons = c.Decide(latWindow(400_000, 1000), kMid, true, cur)
	if len(reasons) != 1 || p.CommitBatch != 4 {
		t.Fatalf("quantile-free window disturbed the baseline: %v", reasons)
	}
}

// TestTunerStepP99Decision drives the loop end to end: the Tuner
// differences the plane's commit histogram, the Controller sees the
// windowed p99 collapse, and the runtime's policy lane is halved. A
// huge flat tolerance removes the wall-clock-dependent throughput
// veto so the test is deterministic.
func TestTunerStepP99Decision(t *testing.T) {
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	cfg.KWindow = 64
	cfg.CommitBatch = 8
	rt := stm.New(64, cfg)
	tn := New(rt, Limits{P99FlatTol: 1e9}, time.Hour)
	s := rt.Metrics().Shard(0)

	feed(s, 1000, 100, 1000) // gf=0.1: lane band holds; seeds p99 baseline
	if tn.Step() {
		t.Fatal("baseline window produced a decision")
	}
	feed(s, 1000, 100, 1000)
	if tn.Step() {
		t.Fatal("steady window produced a decision")
	}
	feed(s, 1000, 1600, 16000) // 16x tail blowout, same grace fraction
	if !tn.Step() {
		t.Fatal("degraded window produced no decision")
	}
	if got := rt.Policy().CommitBatch; got != 4 {
		t.Fatalf("CommitBatch = %d after p99 decision, want 4", got)
	}
	ds := tn.Decisions()
	if len(ds) != 1 || !strings.Contains(strings.Join(ds[0].Reasons, " "), "p99") {
		t.Fatalf("decision log = %+v, want one p99 reason", ds)
	}
}

func TestTunerStepAppliesDecision(t *testing.T) {
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	cfg.KWindow = 64
	cfg.Policy = core.RequestorAborts
	rt := stm.New(64, cfg)

	tn := New(rt, Limits{}, time.Hour) // Step drives it, not the ticker
	s := rt.Metrics().Shard(0)
	// Window 1: busy with heavy grace waiting — lane should open.
	feed(s, 1000, 600, 1000)
	if !tn.Step() {
		t.Fatal("Step made no decision on a contended window")
	}
	if got := rt.Policy().CommitBatch; got != DefaultLimits().BatchSize {
		t.Fatalf("runtime CommitBatch = %d after step, want %d", got, DefaultLimits().BatchSize)
	}
	if rt.PolicySwaps() == 0 {
		t.Fatal("no policy swap recorded")
	}

	// Window 2: idle — below the commit gate, no decision.
	if tn.Step() {
		t.Fatal("Step decided on an idle window")
	}

	v := tn.View()
	if len(v.Decisions) != 1 || !v.Auto {
		t.Fatalf("view = %+v", v)
	}
	if v.Policy != rt.Policy().String() {
		t.Fatalf("view policy %q != runtime policy %q", v.Policy, rt.Policy().String())
	}
}

func TestTunerOverrideAndResume(t *testing.T) {
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	rt := stm.New(64, cfg)
	tn := New(rt, Limits{}, time.Hour)
	s := rt.Metrics().Shard(0)

	p := rt.Policy()
	p.Hybrid = true
	tn.Override(p)
	if !rt.Policy().Hybrid {
		t.Fatal("override not applied")
	}
	if v := tn.View(); v.Auto {
		t.Fatal("view still reports auto after override")
	}

	// While overridden, a contended window must not be acted on.
	feed(s, 1000, 600, 1000)
	if tn.Step() {
		t.Fatal("Step decided while manually overridden")
	}

	tn.Resume()
	if v := tn.View(); !v.Auto {
		t.Fatal("view not auto after resume")
	}
	ds := tn.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decision log has %d entries, want 2 (override + resume)", len(ds))
	}
	if ds[0].Seq >= ds[1].Seq {
		t.Fatal("decision sequence not increasing")
	}
}

func TestTunerStartStop(t *testing.T) {
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	rt := stm.New(64, cfg)
	tn := New(rt, Limits{}, time.Millisecond)
	s := rt.Metrics().Shard(0)
	tn.Start()
	tn.Start() // idempotent
	feed(s, 1000, 600, 1000)
	deadline := time.Now().Add(2 * time.Second)
	for rt.PolicySwaps() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tn.Stop()
	tn.Stop() // idempotent
	if rt.PolicySwaps() == 0 {
		t.Fatal("background loop never applied a decision")
	}
}
