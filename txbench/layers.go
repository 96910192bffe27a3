package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"time"

	txm "txconflict/internal/metrics"
)

// procReading is one reading of the Go runtime's own counters.
type procReading struct{ allocBytes, gcCPU, totalCPU float64 }

func readProc() procReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procReading{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// runTraced is the traced run. It first measures the closed loop on
// a store without the tracer, for the trace overhead, then runs the
// untraced run's rounds on one store built with the benchmark's
// stm.Tracer, its client spans and, on HTTP, its server wrapper, so
// that one set of counter readings and spans covers the window, and
// reports the per-layer table over it. Its rounds are planned for 2/3
// of secs, so that with the untraced closed loop it takes about as
// long as the untraced run.
func runTraced(sp *spec, seed uint64, secs int) *result {
	res := &result{}
	secs = max(1, secs*2/3)
	ref, err := build(sp, seed, nil)
	if err != nil {
		res.err = err
		return res
	}
	rd := ref.newLoad()
	rd.closed(warmup, warmup)
	n, slice := rounds(secs)
	untraced := rd.closed(time.Duration(n)*slice, winLen).opsPerSec()
	err = ref.verify(rd)
	ref.close()
	if err != nil {
		res.err = err
		return res
	}

	rec := newTracer(users)
	x, err := build(sp, seed, rec)
	if err != nil {
		res.err = err
		return res
	}
	defer x.close()
	d := x.newLoad()
	d.closed(warmup, warmup)
	rec.reset()
	p0 := readProc()
	mm, err := measure(x, d, secs)
	p1 := readProc()
	if err == nil {
		err = x.verify(d)
	}
	res.err = err
	res.correct = err == nil
	res.attempted, res.failed = mm.tally.sent, mm.tally.errs+mm.tally.lost
	res.metrics = layerMetrics(sp, mm, rec, p0, p1, untraced)

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	n, derr := rec.dump(path)
	if derr != nil {
		res.notes = append(res.notes, "spans not written: "+derr.Error())
	} else {
		res.notes = append(res.notes, fmt.Sprintf("wrote %d spans to %s", n, path))
	}
	res.notes = append(res.notes, fmt.Sprintf("untraced closed loop %.0f ops/s, traced %.0f ops/s",
		untraced, mm.closed.opsPerSec()), mm.steal.String())
	return res
}

// layerMetrics computes the per-layer table over the traced window.
// Metrics of a layer a workload does not use read 0.
func layerMetrics(sp *spec, mm *measured, rec *tracer, p0, p1 procReading, untraced float64) []metric {
	var clientNs, clients, applyNs, applyTxs, txs, txNs, reads, writes float64
	apply := new(hist)
	for _, l := range rec.lanes {
		l.mu.Lock()
		clientNs += float64(l.clientNs)
		clients += float64(l.clients)
		applyNs += float64(l.applyNs)
		applyTxs += float64(l.applyTxs)
		txs += float64(l.txs)
		txNs += float64(l.txNs)
		reads += float64(l.reads)
		writes += float64(l.writes)
		apply.merge(&l.apply)
		l.mu.Unlock()
	}
	rec.srvMu.Lock()
	srvNs, srvN := float64(rec.srvNs), float64(rec.srvN)
	srvHist := rec.srvHist
	reqBytes, rspBytes := float64(rec.reqBytes), float64(rec.rspBytes)
	rec.srvMu.Unlock()

	// Generator lag and queueing over the passing staircase probes.
	var lag, queue hist
	for _, p := range mm.lad.passing {
		lag.merge(&p.lag)
		queue.merge(&p.queue)
	}

	stat := func(k string) float64 { return float64(mm.after.stats[k] - mm.before.stats[k]) }
	commits := stat("commits")
	perK := func(v float64) float64 { return 1000 * ratio(v, commits) }
	b, a := &mm.before.plane, &mm.after.plane
	commit := a.Commit.Sub(b.Commit)
	attempt := a.Attempt.Sub(b.Attempt)
	grace := a.Grace.Sub(b.Grace)
	drain := a.Drain.Sub(b.Drain)
	abortsPK := func(r txm.AbortReason) float64 { return perK(float64(a.Aborts[r] - b.Aborts[r])) }
	phaseNs := func(p txm.CommitPhase) float64 {
		return ratio(float64(a.PhaseNs[p]-b.PhaseNs[p]), float64(a.PhaseN[p]-b.PhaseN[p]))
	}
	wallNs := float64(mm.after.at.Sub(mm.before.at))
	ops := float64(mm.tally.sent)
	traced := mm.closed.opsPerSec()
	// Behind the server the stm spans are counted in aggregate:
	// handler time less transaction time is the server's own.
	// In-process the store spans stand where the server would.
	var serverSelf, transport, storeSelf float64
	if sp.http {
		serverSelf = ratio(srvNs-txNs, srvN) / 1e3
		transport = ratio(clientNs-srvNs, clients) / 1e3
	} else {
		storeSelf = ratio(applyNs-txNs, applyTxs)
	}

	return []metric{
		{"gen.lag_p99_us", "us", lag.quantile(0.99, 0, 0) / 1e3},
		{"gen.queue_us_p50", "us", queue.quantile(0.50, 0, 0) / 1e3},
		{"server.handler_us_p50", "us", srvHist.quantile(0.50, 0, 0) / 1e3},
		{"server.handler_us_p99", "us", srvHist.quantile(0.99, 0, 0) / 1e3},
		{"server.self_us_mean", "us", serverSelf},
		{"server.transport_us_mean", "us", transport},
		{"server.req_bytes_per_op", "B/op", ratio(reqBytes, ops)},
		{"server.resp_bytes_per_op", "B/op", ratio(rspBytes, ops)},
		{"proc.alloc_bytes_per_req", "B/req", ratio(p1.allocBytes-p0.allocBytes, clients)},
		{"proc.gc_cpu_pct", "%", 100 * ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU)},
		{"store.apply_ns_p50", "ns", apply.quantile(0.50, 0, 0)},
		{"store.apply_ns_p99", "ns", apply.quantile(0.99, 0, 0)},
		{"store.self_ns_mean", "ns", storeSelf},
		{"store.reads_per_op", "words/op", ratio(reads, txs)},
		{"store.writes_per_op", "words/op", ratio(writes, txs)},
		{"stm.commit_ns_p50", "ns", commit.Quantile(0.50)},
		{"stm.commit_ns_p99", "ns", commit.Quantile(0.99)},
		{"stm.attempt_ns_p50", "ns", attempt.Quantile(0.50)},
		{"stm.attempts_per_commit", "ratio", ratio(commits+stat("aborts"), commits)},
		{"stm.busy_pct", "%", 100 * ratio(txNs, users*wallNs)},
		{"stm.aborts_pk.killed", "per_1k_commits", abortsPK(txm.AbortKilled)},
		{"stm.aborts_pk.read-validation", "per_1k_commits", abortsPK(txm.AbortValidation)},
		{"stm.aborts_pk.lock-timeout", "per_1k_commits", abortsPK(txm.AbortLockTimeout)},
		{"stm.aborts_pk.batch-admission", "per_1k_commits", abortsPK(txm.AbortBatchAdmission)},
		{"stm.aborts_pk.max-retries", "per_1k_commits", abortsPK(txm.AbortMaxRetries)},
		{"stm.grace_waits_pk", "per_1k_commits", perK(stat("graceWaits"))},
		{"stm.grace_wait_ns_p50", "ns", grace.Quantile(0.50)},
		{"stm.grace_wait_ns_p99", "ns", grace.Quantile(0.99)},
		{"stm.extensions_pk", "per_1k_commits", perK(stat("extensions"))},
		{"stm.irrevocable_pk", "per_1k_commits", perK(stat("irrevocable"))},
		{"stm.phase_ns.validate", "ns", phaseNs(txm.PhaseValidate)},
		{"stm.phase_ns.lock", "ns", phaseNs(txm.PhaseLock)},
		{"stm.phase_ns.writeback", "ns", phaseNs(txm.PhaseWriteBack)},
		{"stm.phase_ns.clock", "ns", phaseNs(txm.PhaseClock)},
		{"combiner.commits_per_batch", "ratio", ratio(stat("batchCommits"), stat("batches"))},
		{"combiner.drain_ns_p50", "ns", drain.Quantile(0.50)},
		{"combiner.drain_ns_p99", "ns", drain.Quantile(0.99)},
		{"combiner.batch_fails_pk", "per_1k_commits", perK(stat("batchFails"))},
		{"bench.trace_overhead_pct", "%", 100 * ratio(untraced-traced, untraced)},
	}
}
