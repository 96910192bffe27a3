package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"txconflict/internal/rng"
	"txconflict/internal/txkv"
)

// batchOps is the ops per request: one POST /v1/batch, or one
// Store.ApplyBatch call in-process.
const batchOps = 16

// sender issues one batch; id names the request in the traced run.
type sender func(id uint64, ops []txkv.Op) ([]txkv.Result, error)

// user is one load-generating client: a txkv catalog user drawing ops
// from its own seeded stream, and one connection (or in-process
// worker id) to send them on. Each user runs on one goroutine at a
// time; its tallies are read once the phase's goroutines have ended.
type user struct {
	id   int
	w    *txkv.User
	r    *rng.Rand
	send sender
	ops  []txkv.Op

	sent      uint64 // ops sent
	okOps     uint64 // ops answered without Result.Err
	errOps    uint64 // ops answered with Result.Err
	lostOps   uint64 // ops of requests that failed or were refused
	adds      uint64 // deltas of successful add ops, for Workload.Check
	violation error  // first isolation violation seen by Observe
}

// do draws one batch, sends it and validates every response. It
// reports the number of ops that completed without error.
func (u *user) do(id uint64) uint64 {
	for i := range u.ops {
		u.ops[i] = u.w.Next(u.r)
	}
	u.sent += uint64(len(u.ops))
	res, err := u.send(id, u.ops)
	if err != nil {
		u.lostOps += uint64(len(u.ops))
		return 0
	}
	if len(res) != len(u.ops) {
		u.lostOps += uint64(len(u.ops))
		u.fail(fmt.Errorf("%d results for %d ops", len(res), len(u.ops)))
		return 0
	}
	var ok uint64
	for i, r := range res {
		op := u.ops[i]
		if u.w.Observe != nil {
			if err := u.w.Observe(op, r); err != nil {
				u.fail(err)
			}
		}
		if r.Err != "" {
			u.errOps++
			continue
		}
		ok++
		if op.Kind == txkv.KindAdd {
			u.adds += op.Val
		}
	}
	u.okOps += ok
	return ok
}

func (u *user) fail(err error) {
	if u.violation == nil {
		u.violation = fmt.Errorf("user %d: %w", u.id, err)
	}
}

// win accumulates one time window of a phase.
type win struct {
	lat  hist     // request latency, ns; in the open loop from due time
	reqs uint64   // requests whose latency is in lat
	ops  uint64   // ops completed without error
	host cpuTicks // closed loop: the machine's CPU time over the window
}

// unstolen is the share of the machine's CPU time over the window
// that the hypervisor did not steal; 1 when the window has no
// reading.
func (w *win) unstolen() float64 {
	if w.host.total == 0 || w.host.steal >= w.host.total {
		return 1
	}
	return 1 - float64(w.host.steal)/float64(w.host.total)
}

// phase is what one closed- or open-loop phase measured, merged over
// users.
type phase struct {
	wins     []*win
	winSec   float64
	offered  []uint64      // open loop: requests due in each window
	lag      hist          // open loop: send time minus due time, idle connections
	queue    hist          // open loop: pick-up time minus due time, every request
	deadline time.Duration // open loop: no request starts after it
}

// opsPerSec is the median over windows of ops completed per second
// of CPU time the hypervisor left the machine: each window's ops per
// second divided by its unstolen share. A stolen vCPU stalls the
// users, so raw throughput falls with the host's load.
func (p *phase) opsPerSec() float64 {
	xs := make([]float64, len(p.wins))
	for i, w := range p.wins {
		xs[i] = float64(w.ops) / p.winSec / w.unstolen()
	}
	return median(xs)
}

// wallOpsPerSec is the phase's ops over its length, uncorrected.
func (p *phase) wallOpsPerSec() float64 {
	var ops uint64
	for _, w := range p.wins {
		ops += w.ops
	}
	return ratio(float64(ops), p.winSec*float64(len(p.wins)))
}

// winRates lists each window's ops per second, for the table.
func (p *phase) winRates() string {
	rates := make([]string, len(p.wins))
	for i, w := range p.wins {
		rates[i] = fmt.Sprintf("%.0f", float64(w.ops)/p.winSec/w.unstolen())
	}
	return strings.Join(rates, " ")
}

// latency returns the median over windows of each window's q-quantile
// in microseconds; in the open loop a request still unanswered at the
// phase deadline counts as answered at the deadline, a lower bound.
// It also returns the number of requests the quantiles cover.
func (p *phase) latency(q float64) (us float64, n uint64) {
	xs := make([]float64, len(p.wins))
	for i, w := range p.wins {
		var missing uint64
		if p.offered != nil {
			missing = p.offered[i] - w.reqs
		}
		xs[i] = w.lat.quantile(q, missing, float64(p.deadline)) / 1e3
		n += w.reqs + missing
	}
	return median(xs), n
}

// merged is the phase's whole latency histogram and its request
// count, with unanswered open-loop requests as the second result.
func (p *phase) merged() (h *hist, missing uint64) {
	h = new(hist)
	for i, w := range p.wins {
		h.merge(&w.lat)
		if p.offered != nil {
			missing += p.offered[i] - w.reqs
		}
	}
	return h, missing
}

func newWins(n int) []*win {
	ws := make([]*win, n)
	for i := range ws {
		ws[i] = new(win)
	}
	return ws
}

func mergeWins(dst, src []*win) {
	for i, w := range src {
		dst[i].lat.merge(&w.lat)
		dst[i].reqs += w.reqs
		dst[i].ops += w.ops
		dst[i].host.steal += w.host.steal
		dst[i].host.total += w.host.total
	}
}

// load runs phases over a fixed set of users and hands out request
// ids.
type load struct {
	users []*user
	rec   *tracer // nil outside the traced run
	ids   atomic.Uint64
}

// each runs fn once per user on its own goroutine and waits for all.
func (d *load) each(fn func(u *user)) {
	var wg sync.WaitGroup
	for _, u := range d.users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(u)
		}()
	}
	wg.Wait()
}

// call sends one request for u, timing it as a client span in the
// traced run.
func (d *load) call(u *user) uint64 {
	id := d.ids.Add(1)
	if d.rec == nil {
		return u.do(id)
	}
	t0 := d.rec.now()
	ok := u.do(id)
	d.rec.client(u.id, id, t0, d.rec.now())
	return ok
}

// closed runs every user closed-loop for dur: each sends its next
// request as soon as the previous one is answered. Windows are by
// request start; latency is the request's own time.
func (d *load) closed(dur, winLen time.Duration) *phase {
	nw := int(dur / winLen)
	p := &phase{wins: newWins(nw), winSec: winLen.Seconds()}
	var mu sync.Mutex
	t0 := time.Now()
	d.each(func(u *user) {
		ws := newWins(nw)
		// User 0 reads the machine's CPU time as each window
		// begins and once the phase ends.
		var marks []cpuTicks
		for {
			start := time.Since(t0)
			if start >= dur {
				break
			}
			for u.id == 0 && len(marks) <= int(start/winLen) {
				marks = append(marks, readSteal())
			}
			ok := d.call(u)
			w := ws[start/winLen]
			w.lat.add(int64(time.Since(t0) - start))
			w.reqs++
			w.ops += ok
		}
		for u.id == 0 && len(marks) <= nw {
			marks = append(marks, readSteal())
		}
		for i := 0; i+1 < len(marks); i++ {
			ws[i].host = marks[i+1].sub(marks[i])
		}
		mu.Lock()
		mergeWins(p.wins, ws)
		mu.Unlock()
	})
	return p
}

// open runs the users open-loop: request i is due at i/rate after the
// start, whichever user is free takes the next due request, and
// latency runs from the due time to the answer. No request starts
// after dur+slack; one still unanswered then counts as missing its
// latency limit. Windows are by due time.
func (d *load) open(rate float64, dur, winLen, slack time.Duration) *phase {
	nw := int(dur / winLen)
	n := uint64(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	dueOf := func(i uint64) time.Duration { return time.Duration(float64(i) * interval) }
	p := &phase{wins: newWins(nw), winSec: winLen.Seconds(), offered: make([]uint64, nw)}
	for i := uint64(0); i < n; i++ {
		p.offered[dueOf(i)/winLen]++
	}
	deadline := dur + slack
	p.deadline = deadline
	var next atomic.Uint64
	var mu sync.Mutex
	t0 := time.Now()
	d.each(func(u *user) {
		ws := newWins(nw)
		var lag, queue hist
		for {
			i := next.Add(1) - 1
			if i >= n {
				break
			}
			due := dueOf(i)
			now := time.Since(t0)
			if now >= deadline {
				break
			}
			if now < due {
				// A sleep can wake up to a millisecond late once
				// every CPU idles; gen.lag reports how late.
				time.Sleep(due - now)
				now = time.Since(t0)
				lag.add(int64(now - due))
				queue.add(0)
			} else {
				queue.add(int64(now - due))
			}
			ok := d.call(u)
			end := time.Since(t0)
			if end > deadline {
				continue
			}
			w := ws[due/winLen]
			w.lat.add(int64(end - due))
			w.reqs++
			w.ops += ok
		}
		mu.Lock()
		mergeWins(p.wins, ws)
		p.lag.merge(&lag)
		p.queue.merge(&queue)
		mu.Unlock()
	})
	return p
}
