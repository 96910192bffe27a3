package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// spec is one named workload: a txkv catalog traffic shape, the path
// it is served on, and the commit mode.
type spec struct {
	name    string
	traffic string // txkv catalog workload (Workload.NewUser makes the ops)
	http    bool   // POST /v1/batch over loopback, else Store.ApplyBatch in-process
	batch   int    // lazy group-commit bound (txkvd -batch); 0 = eager, unbatched
}

var specs = []*spec{
	{name: "kv-read-http", traffic: "readmostly", http: true},
	{name: "counter-hot-local", traffic: "hotspot-counter"},
	{name: "doc-batched-local", traffic: "document", batch: 4},
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	setups = 201         // builds timed per run, in a group per round; setup_s is their median
	warmup = time.Second // closed-loop traffic before the traced run's window, not measured
	// roundWarmup runs on each round's fresh system before its slice.
	roundWarmup = 250 * time.Millisecond
	winLen      = 250 * time.Millisecond // window of the closed loop
	probeLen    = time.Second            // one staircase probe
	// p99Limit is the staircase's latency limit from due time. The
	// host the benchmark was sized on loses its vCPUs for up to 40 ms
	// at a time, so an open loop's p99 sits at a few ms at any rate
	// and a limit near that would measure the host. At 50 ms a 1 s
	// probe fails once the offered rate exceeds capacity by about 5%,
	// one rung, as the backlog builds over the probe.
	p99Limit = 50 * time.Millisecond
)

// closedShare of the window runs closed-loop, for ops_per_s and
// the request latency; the staircase's probes take the rest.
const closedShare = 0.6

// rounds splits a window of secs seconds into closed-loop slices,
// each followed by one probe, so that every metric samples the whole
// window: one round per probe, and each slice a whole number of
// closed-loop windows.
func rounds(secs int) (n int, slice time.Duration) {
	n = max(1, int((1-closedShare)*float64(secs)*float64(time.Second)/float64(probeLen)+0.5))
	slice = time.Duration(closedShare * float64(secs) * float64(time.Second) / float64(n))
	return n, max(winLen, slice.Round(winLen))
}

// measured is what a run's rounds saw.
type measured struct {
	closed *phase
	lad    *stair
	before counters // the traced run's one store, around the rounds
	after  counters
	tally  tally
	steal  cpuTicks
	cpuSec float64 // the process's CPU time over the closed-loop slices

	commits, aborts uint64 // runtime counters over the rounds
}

// tally sums the users' op counts.
type tally struct{ sent, ok, errs, lost uint64 }

func (d *load) tally() tally {
	var t tally
	for _, u := range d.users {
		t.sent += u.sent
		t.ok += u.okOps
		t.errs += u.errOps
		t.lost += u.lostOps
	}
	return t
}

func (t tally) add(o tally) tally {
	return tally{t.sent + o.sent, t.ok + o.ok, t.errs + o.errs, t.lost + o.lost}
}

func (t tally) sub(o tally) tally {
	return tally{t.sent - o.sent, t.ok - o.ok, t.errs - o.errs, t.lost - o.lost}
}

// measure runs the rounds on one store between two quiescent counter
// readings and checks the runtime's commit count against the users'
// own.
func measure(x *sut, d *load, secs int) (*measured, error) {
	m := &measured{closed: &phase{winSec: winLen.Seconds()}}
	n, slice := rounds(secs)
	t0 := d.tally()
	m.before = x.read()
	steal0 := readSteal()
	for r := 0; r < n; r++ {
		m.round(d, r, slice)
	}
	m.after = x.read()
	m.steal = readSteal().sub(steal0)
	m.tally = d.tally().sub(t0)
	if m.tally.sent == 0 {
		return m, fmt.Errorf("no requests completed")
	}
	return m, checkCommits(m.before, m.after, m.tally.ok, m.tally.lost)
}

// round runs one closed-loop slice and one staircase probe. The
// staircase starts from the closed-loop capacity of the first slice.
func (m *measured) round(d *load, r int, slice time.Duration) {
	c0 := processCPU()
	p := d.closed(slice, winLen)
	m.cpuSec += processCPU() - c0
	m.closed.wins = append(m.closed.wins, p.wins...)
	if r == 0 {
		m.lad = newStair(p.opsPerSec() / batchOps)
	}
	m.lad.step(d, probeLen, p99Limit)
}

// result is one run's verdict and metrics, in the order printed.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           []metric
	notes             []string // extra table lines: sample counts, probes
	err               error
}

type metric struct {
	name, unit string
	value      float64
}

// runE2E is the untraced run: set-up time, then the workload's rounds
// on the system txkvd ships, each on a system built afresh, then the
// correctness gate.
func runE2E(sp *spec, seed uint64, secs int) *result {
	res := &result{}
	nr, slice := rounds(secs)
	m := &measured{closed: &phase{winSec: winLen.Seconds()}}
	steal0 := readSteal()
	// The set-ups are timed in equal groups before the rounds, so that
	// they too sample the whole run; each group's last build serves
	// its round.
	per := (setups + nr - 1) / nr
	times := make([]float64, 0, per*nr)
	var conns int64
	var err error
	for r := 0; r < nr && err == nil; r++ {
		var x *sut
		for i := 0; i < per && err == nil; i++ {
			if x != nil {
				x.close()
			}
			t := time.Now()
			x, err = build(sp, seed, nil)
			times = append(times, time.Since(t).Seconds())
		}
		if err != nil {
			break
		}
		d := x.newLoad()
		d.closed(roundWarmup, roundWarmup)
		before, t0 := x.read(), d.tally()
		m.round(d, r, slice)
		after, t := x.read(), d.tally().sub(t0)
		m.tally = m.tally.add(t)
		err = checkCommits(before, after, t.ok, t.lost)
		if err == nil {
			err = x.verify(d)
		}
		m.commits += after.stats["commits"] - before.stats["commits"]
		m.aborts += after.stats["aborts"] - before.stats["aborts"]
		conns += x.conns.Load()
		x.close()
	}
	m.steal = readSteal().sub(steal0)
	if err == nil && m.tally.sent == 0 {
		err = fmt.Errorf("no requests completed")
	}
	res.err = err
	res.correct = err == nil
	res.attempted, res.failed = m.tally.sent, m.tally.errs+m.tally.lost
	if m.lad == nil {
		return res // the first round's build failed
	}

	p50, n := m.closed.latency(0.50)
	p90, _ := m.closed.latency(0.90)
	p99, _ := m.closed.latency(0.99)
	res.metrics = []metric{
		{"ops_per_s", "ops/s", m.closed.opsPerSec()},
		{"req_p50_us", "us", p50},
		{"req_p90_us", "us", p90},
		{"setup_s", "s", median(times)},
		{"peak_rss_mb", "MB", peakRSSMB()},
	}
	wall := m.closed.wallOpsPerSec()
	res.notes = append(res.notes,
		fmt.Sprintf("failed_ratio %.6f (%d of %d ops failed or refused)",
			ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted),
		fmt.Sprintf("req latency: closed loop, per request, n=%d requests, median of %d windows of %v", n, len(m.closed.wins), winLen),
		fmt.Sprintf("req_p99_us %.1f us (not gated: it follows the host's stalls)", p99),
		fmt.Sprintf("ops_per_s: closed loop, %d users, median of %d windows of %v, each over its unstolen CPU share: %s", users, len(m.closed.wins), winLen, m.closed.winRates()),
		fmt.Sprintf("wall: %.0f ops/s uncorrected, %.0f ops per CPU-second of the process", wall, ratio(wall*float64(len(m.closed.wins))*winLen.Seconds(), m.cpuSec)),
		fmt.Sprintf("setup_s: median of %d builds", len(times)),
	)
	if sp.http {
		res.notes = append(res.notes, fmt.Sprintf("connections: the servers accepted %d for %d keep-alive users in %d rounds", conns, users, nr))
	}
	res.notes = append(res.notes, fmt.Sprintf("max_rps %.1f req/s (not gated: it follows the host's stalls)", m.lad.maxRPS()))
	res.notes = append(res.notes, m.lad.describe(p99Limit)...)
	res.notes = append(res.notes, fmt.Sprintf("stm: %d commits, %.4f aborts per commit", m.commits, ratio(float64(m.aborts), float64(m.commits))))
	res.notes = append(res.notes, m.steal.String())
	return res
}

func (s *stair) describe(limit time.Duration) []string {
	out := []string{fmt.Sprintf("max_rps: staircase of %d probes of %v, p99 limit %v, pass needs >= 99%% answered", len(s.probes), probeLen, limit)}
	for _, p := range s.probes {
		out = append(out, fmt.Sprintf("  rung %3d %9.0f req/s: p99 %10.1f us, %d/%d answered, pass %v",
			p.rung, ladderRate(p.rung), p.p99us, p.done, p.offered, p.pass))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, _ := os.ReadFile("/proc/self/status")
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			break
		}
	}
	return kb / 1024
}

// cpuTicks is the machine's CPU time from /proc/stat: the time the
// hypervisor gave to other guests (steal) and the total.
type cpuTicks struct{ steal, total uint64 }

func readSteal() cpuTicks {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 {
			continue // the "cpu" label; guest time is already in user
		}
		var v uint64
		fmt.Sscan(f, &v)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) sub(o cpuTicks) cpuTicks { return cpuTicks{t.steal - o.steal, t.total - o.total} }

// String is the table line. Steal is CPU time the host withheld; the
// in-process workloads, doc-batched-local most, slow down with it.
func (t cpuTicks) String() string {
	return fmt.Sprintf("host: %.1f%% of CPU time stolen by the hypervisor over the window", 100*ratio(float64(t.steal), float64(t.total)))
}

// processCPU is the CPU time this process has used, in seconds. With
// the kernel's steal accounting it leaves out stolen time.
func processCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
