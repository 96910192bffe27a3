package metrics

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"txconflict/internal/rng"
)

// TestBucketLayout pins the bucket boundary algebra: indices are
// monotone in the value, BucketLower inverts bucketIndex on bucket
// starts, and bucket width never exceeds 1/8 of the lower bound.
func TestBucketLayout(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<14; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i != prev {
			if got := BucketLower(i); got != v {
				t.Fatalf("BucketLower(%d) = %d, want bucket start %d", i, got, v)
			}
			prev = i
		}
	}
	for i := 2 * histSubCount; i < NumBuckets-1; i++ {
		lo, hi := BucketLower(i), BucketLower(i+1)
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%d, %d)", i, lo, hi)
		}
		if width := hi - lo; width*histSubCount > lo {
			t.Fatalf("bucket %d too wide: width %d > lower/8 = %d", i, width, lo/histSubCount)
		}
	}
	// Extremes stay in range.
	if i := bucketIndex(math.MaxUint64); i != NumBuckets-1 {
		t.Fatalf("max value lands in bucket %d, want %d", i, NumBuckets-1)
	}
}

// TestQuantileErrorBound draws random samples from several shapes and
// checks every reported quantile against the exact order statistic:
// relative error must stay within the bucket-midpoint bound (1/16,
// with a little slack for the <8ns exact region).
func TestQuantileErrorBound(t *testing.T) {
	r := rng.New(42)
	shapes := map[string]func() int64{
		"uniform": func() int64 { return int64(r.Uint64n(2_000_000)) },
		"exp":     func() int64 { return int64(r.ExpFloat64() * 50_000) },
		"heavy": func() int64 {
			if r.Bool(0.99) {
				return int64(r.Uint64n(10_000))
			}
			return int64(10_000_000 + r.Uint64n(90_000_000))
		},
	}
	for name, draw := range shapes {
		var h Histogram
		samples := make([]int64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := draw()
			h.Observe(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q*float64(len(samples)))) - 1
			exact := float64(samples[rank])
			got := s.Quantile(q)
			if exact < histSubCount {
				if math.Abs(got-exact) > 1 {
					t.Errorf("%s q%.3f: got %.1f, exact %.1f", name, q, got, exact)
				}
				continue
			}
			if rel := math.Abs(got-exact) / exact; rel > 1.0/16+1e-9 {
				t.Errorf("%s q%.3f: got %.1f, exact %.1f, rel err %.4f > 1/16", name, q, got, exact, rel)
			}
		}
	}
}

// TestMergeAssociativity checks that shard merging commutes and
// associates: any merge order of three snapshots yields identical
// counts, and Sub inverts Merge.
func TestMergeAssociativity(t *testing.T) {
	r := rng.New(7)
	mk := func() HistSnapshot {
		var h Histogram
		for i := 0; i < 5_000; i++ {
			h.Observe(int64(r.Uint64n(1_000_000)))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()

	ab := a
	ab.Merge(&b)
	abc1 := ab
	abc1.Merge(&c)

	bc := b
	bc.Merge(&c)
	abc2 := bc
	abc2.Merge(&a)

	if abc1 != abc2 {
		t.Fatal("merge order changed the snapshot")
	}
	back := abc1.Sub(c)
	if back != ab {
		t.Fatal("Sub did not invert Merge")
	}
}

// TestGoldenFingerprint pins the bucket layout and hash: a seeded
// sample stream must always produce the same fingerprint, or recorded
// golden histograms silently stop being comparable across versions.
func TestGoldenFingerprint(t *testing.T) {
	r := rng.New(12345)
	var h Histogram
	for i := 0; i < 10_000; i++ {
		h.Observe(int64(r.Uint64n(10_000_000)))
	}
	s := h.Snapshot()
	const want = 0xccde340c331a28d
	if got := s.Fingerprint(); got != want {
		t.Fatalf("fingerprint = %#x, want %#x (bucket layout or hash changed)", got, want)
	}
}

// TestPlaneShards checks worker routing and snapshot merging across
// shards, including the anonymous worker id -1.
func TestPlaneShards(t *testing.T) {
	p := NewPlane(4, 0)
	if p.SampleN() != DefaultSampleN {
		t.Fatalf("SampleN = %d, want default %d", p.SampleN(), DefaultSampleN)
	}
	for w := -1; w < 8; w++ {
		p.Shard(w).ObserveAttempt(int64(100 * (w + 2)))
		p.Shard(w).Abort(AbortKilled)
	}
	s := p.Snapshot()
	if s.Attempt.Count != 9 {
		t.Fatalf("merged attempt count = %d, want 9", s.Attempt.Count)
	}
	if s.Aborts[AbortKilled] != 9 {
		t.Fatalf("merged killed aborts = %d, want 9", s.Aborts[AbortKilled])
	}
	if got := s.AbortCounts()["killed"]; got != 9 {
		t.Fatalf("AbortCounts[killed] = %d, want 9", got)
	}
}

// TestPlaneCountersAndSub checks the event counters, the snapshot
// difference and the derived named counters: each key reads the right
// observation, and a kill counts once — under kills and the killed
// reason, never as a self abort.
func TestPlaneCountersAndSub(t *testing.T) {
	p := NewPlane(2, 0)
	a, b := p.Shard(0), p.Shard(1)
	a.ObserveCommit(100)
	a.Count(EventKill, 1)
	b.Abort(AbortKilled)
	prev := p.Snapshot()

	a.ObserveCommit(200)
	b.ObserveCommit(300)
	a.ObserveGrace(50)
	b.Abort(AbortValidation)
	b.Abort(AbortMaxRetries)
	a.Abort(AbortExplicit)
	a.Count(EventBatch, 1)
	a.Count(EventBatchCommit, 3)
	b.Count(EventFoldedWord, 2)
	cur := p.Snapshot()

	d := cur.Sub(prev)
	if d.Commit.Count != 2 || d.Commit.Sum != 500 || d.Grace.Sum != 50 {
		t.Fatalf("delta commit %d/%dns grace %dns, want 2/500ns 50ns", d.Commit.Count, d.Commit.Sum, d.Grace.Sum)
	}
	if d.Events[EventKill] != 0 || d.Events[EventBatchCommit] != 3 || d.Aborts[AbortKilled] != 0 {
		t.Fatalf("delta events %v aborts %v", d.Events, d.Aborts)
	}
	want := map[string]uint64{
		"commits": 3, "aborts": 2, "selfAborts": 1, "graceWaits": 1, "irrevocable": 1,
		"kills": 1, "extensions": 0, "batches": 1, "batchCommits": 3, "batchFails": 0,
		"foldedCommits": 0, "foldedWords": 2,
	}
	got := cur.Counters()
	if len(got) != len(want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Counters()[%q] = %d, want %d", k, got[k], v)
		}
	}
}

// TestSampleInterval pins the 1-in-N contract.
func TestSampleInterval(t *testing.T) {
	p := NewPlane(1, 8)
	sh := p.Shard(0)
	hits := 0
	for i := 0; i < 8*10; i++ {
		if sh.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 80 at 1-in-8, want 10", hits)
	}
}

// TestPromExposition parses the writer's own output: TYPE/HELP before
// samples, well-formed sample lines, all abort reasons and phases
// present, summary quantiles monotone.
func TestPromExposition(t *testing.T) {
	p := NewPlane(2, 0)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		p.Shard(i % 2).ObserveAttempt(int64(r.Uint64n(100_000)))
		p.Shard(i % 2).ObserveCommit(int64(r.Uint64n(200_000)))
	}
	p.Shard(0).Abort(AbortValidation)
	p.Shard(0).Phase(PhaseLock, 1234)

	var buf bytes.Buffer
	snap := p.Snapshot()
	if err := snap.WriteProm(&buf, "txstm"); err != nil {
		t.Fatal(err)
	}
	families, samples := parseExposition(t, buf.String())
	for _, fam := range []string{
		"txstm_attempt_latency_seconds", "txstm_commit_latency_seconds",
		"txstm_grace_wait_seconds", "txstm_combiner_drain_seconds",
		"txstm_aborted_attempts_total", "txstm_commit_phase_seconds_total",
	} {
		if _, ok := families[fam]; !ok {
			t.Errorf("family %s missing", fam)
		}
	}
	for r := 0; r < NumAbortReasons; r++ {
		want := `txstm_aborted_attempts_total{reason="` + AbortReason(r).String() + `"}`
		if _, ok := samples[want]; !ok {
			t.Errorf("abort series %s missing", want)
		}
	}
	// Summary quantiles are nondecreasing in q.
	prev := -1.0
	for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
		v, ok := samples[`txstm_commit_latency_seconds{quantile="`+q+`"}`]
		if !ok {
			t.Fatalf("quantile %s missing", q)
		}
		if v < prev {
			t.Errorf("quantile %s = %g below previous %g", q, v, prev)
		}
		prev = v
	}
}

// parseExposition is a strict-enough parser for the text format:
// returns TYPE by family and value by sample key. Fails the test on
// malformed lines or samples without a preceding TYPE.
func parseExposition(t *testing.T, text string) (map[string]string, map[string]float64) {
	t.Helper()
	families := map[string]string{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			families[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
		found := false
		for fam := range families {
			if strings.HasPrefix(base, fam) || strings.HasPrefix(fam, base) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sample %q has no preceding TYPE", key)
		}
		samples[key] = f
	}
	return families, samples
}
