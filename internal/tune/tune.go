// Package tune closes the profile→policy loop online: it watches a
// running stm.Runtime through its metrics plane and retunes the
// runtime's stm.Policy while transactions keep flowing.
//
// The package is the control plane the paper's offline analysis
// implies but never builds. Sections 5–8 derive, per conflict regime,
// which resolution policy and grace-period strategy win; Section 9
// reduces the choice to a rule over the conflict-chain length k
// (requestor-aborts for pair conflicts, requestor-wins for longer
// chains). Those results assume the regime is known. tune estimates
// the regime live — windowed commit and kill counts, grace-wait
// time, commit-latency quantiles, and the runtime's windowed k estimate — and walks the policy
// toward the regime's winner with enough hysteresis that a noisy
// boundary does not thrash the runtime.
//
// Three pieces, smallest first:
//
//   - Window (this file): one control interval read off the
//     runtime's metrics plane — the difference of two
//     metrics.PlaneSnapshots gives the interval's commits, kills
//     issued, grace-wait and committed-block nanoseconds, and its
//     commit-latency histogram gives CommitP50Ns/CommitP99Ns. The
//     plane is always on, so the tuner needs no tracer.
//   - Controller (controller.go): pure decision logic. Given a
//     Window, the current k estimate and the current Policy, Decide
//     returns the next Policy plus human-readable reasons — or no
//     change. All thresholds live in Limits. The p99 rule is the
//     tail-aware half: when windowed commit p99 degrades against its
//     EWMA baseline while throughput stays flat, it backs off the
//     group-commit lane (or widens the grace budget) — latency pain
//     with no throughput payoff means the batch is queueing, not
//     amortizing.
//   - Tuner (tuner.go): the loop. A goroutine (or an explicit Step
//     call) snapshots the plane, asks the Controller, applies the
//     result via Runtime.SetPolicy, and appends to a bounded decision
//     log that /v1/policy renders.
package tune

import (
	"time"

	"txconflict/internal/metrics"
)

// Window is one control interval of observed behaviour: the fields
// Controller.Decide reads, plus the wall time the interval covers.
type Window struct {
	// Commits is the number of committed blocks.
	Commits uint64
	// KillsIssued is the number of receivers killed by requestors.
	KillsIssued uint64
	// GraceWaitNs is the total time requestors spent in grace waits.
	GraceWaitNs uint64
	// DurNs is the total wall time of the committed blocks, first
	// attempt to commit.
	DurNs uint64
	// Elapsed is the wall time the window covers.
	Elapsed time.Duration

	// CommitP50Ns and CommitP99Ns are the commit-latency quantiles of
	// the blocks that committed inside the window, in nanoseconds (0
	// when none did).
	CommitP50Ns, CommitP99Ns float64
}

// windowOf reads a Window off d, the difference of two plane
// snapshots taken elapsed apart.
func windowOf(d *metrics.PlaneSnapshot, elapsed time.Duration) Window {
	return Window{
		Commits:     d.Commit.Count,
		KillsIssued: d.Events[metrics.EventKill],
		GraceWaitNs: d.Grace.Sum,
		DurNs:       d.Commit.Sum,
		Elapsed:     elapsed,
		CommitP50Ns: d.Commit.Quantile(0.50),
		CommitP99Ns: d.Commit.Quantile(0.99),
	}
}

// GraceFrac is grace-wait time over committed-block time — the
// controller's proxy for lock contention at and before commit. Blocks
// that ended in a user abort add their grace waits but not their
// duration. 0 when idle.
func (w Window) GraceFrac() float64 {
	if w.DurNs == 0 {
		return 0
	}
	return float64(w.GraceWaitNs) / float64(w.DurNs)
}

// CommitsPerSec is window commit throughput.
func (w Window) CommitsPerSec() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Commits) / w.Elapsed.Seconds()
}
