package main

import (
	"math"
	"time"
)

// The offered-rate ladder is fixed: rung i offers 100 * 1.05^i
// requests per second, so two runs, or two commits, probe the same
// rates.
const (
	ladderBase  = 100.0
	ladderRatio = 1.05
	ladderRungs = 200
	// startShare places the first probe at this share of the
	// closed-loop capacity measured in the same run. It only picks
	// where the staircase starts.
	startShare = 0.9
)

func ladderRate(i int) float64 { return ladderBase * math.Pow(ladderRatio, float64(i)) }

// rungBelow is the highest rung offering at most rate (0 at least).
func rungBelow(rate float64) int {
	if rate <= ladderBase {
		return 0
	}
	i := int(math.Floor(math.Log(rate/ladderBase) / math.Log(ladderRatio)))
	return min(i, ladderRungs-1)
}

// probe is one open-loop step at one rung.
type probe struct {
	rung    int
	p99us   float64
	done    uint64
	offered uint64
	pass    bool
}

// stair is a one-up, one-down staircase on the ladder: a probe that
// passes moves the next one up a rung, one that fails moves it down.
// It settles at the highest rung that passes and steps around it.
// A host stall that fails a probe below capacity costs one step, not
// the search, and probes spread over the whole run average the host's
// load the way the closed-loop windows do.
type stair struct {
	rung    int
	probes  []probe
	passing []*phase // the phases of passing probes, for generator lag
}

func newStair(capRPS float64) *stair { return &stair{rung: rungBelow(startShare * capRPS)} }

// step runs one probe at the current rung: it passes when the p99
// latency from due time stays within limit and at least 99% of the
// offered requests are answered within the probe (no growing
// backlog).
func (s *stair) step(d *load, probeLen, limit time.Duration) {
	p := d.open(ladderRate(s.rung), probeLen, probeLen, limit)
	h, missing := p.merged()
	pr := probe{rung: s.rung, p99us: h.quantile(0.99, missing, math.Inf(1)) / 1e3,
		done: h.n, offered: h.n + missing}
	pr.pass = pr.p99us*1e3 <= float64(limit) && pr.done*100 >= pr.offered*99
	s.probes = append(s.probes, pr)
	if pr.pass {
		s.passing = append(s.passing, p)
		s.rung = min(s.rung+1, ladderRungs-1)
	} else {
		s.rung = max(s.rung-1, 0)
	}
}

// maxRPS is the offered rate at the median rung of the passing
// probes, leaving out the climb or descent before the staircase first
// turned (all but its last probe). It is 0 when no probe passed.
func (s *stair) maxRPS() float64 {
	from := 0
	for i := 1; i < len(s.probes); i++ {
		if s.probes[i].pass != s.probes[i-1].pass {
			from = i - 1
			break
		}
	}
	var rungs []float64
	for _, p := range s.probes[from:] {
		if p.pass {
			rungs = append(rungs, float64(p.rung))
		}
	}
	if len(rungs) == 0 {
		return 0
	}
	return ladderBase * math.Pow(ladderRatio, median(rungs))
}
