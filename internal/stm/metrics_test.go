package stm

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// stat reads one named counter off the runtime's Stats view.
func stat(rt *Runtime, key string) uint64 { return rt.Stats.Snapshot()[key] }

// TestStatsSnapshotComplete pins the Stats key set: /v1/stats, the
// txstm_*_total exposition and the bench harnesses all read exactly
// these twelve counters, so adding, dropping or renaming one is an
// interface change, not a refactor.
func TestStatsSnapshotComplete(t *testing.T) {
	want := []string{
		"aborts", "batchCommits", "batchFails", "batches", "commits", "extensions",
		"foldedCommits", "foldedWords", "graceWaits", "irrevocable", "kills", "selfAborts",
	}
	rt := New(4, DefaultConfig())
	if err := rt.Atomic(rng.New(1), func(tx *Tx) error { tx.Store(0, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	snap := rt.Stats.Snapshot()
	got := make([]string, 0, len(snap))
	for k := range snap {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot() keys = %v, want %v", got, want)
	}
	if snap["commits"] != 1 {
		t.Errorf("Snapshot() values wrong: %v", snap)
	}
}

// sumTracer is an independent count of what the runtime did: it sums
// the per-block trace records, which the runtime fills in on a
// separate path from the metrics plane.
type sumTracer struct {
	mu                                     sync.Mutex
	committed, retries, kills, irrevocable uint64
	graceNs                                int64
}

func (s *sumTracer) TraceTx(t *TxTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Committed {
		s.committed++
	}
	s.retries += uint64(t.Retries)
	s.kills += uint64(t.KillsIssued)
	if t.Irrevocable {
		s.irrevocable++
	}
	s.graceNs += t.GraceWaitNs
}

// TestMetricsPlaneWiring runs contended transactions through every
// commit path with a summing tracer attached and cross-checks the
// Stats view — derived entirely from the metrics plane — against the
// trace records: commits, aborts, kills, irrevocable escalations and
// grace-wait time must all agree, as must the plane's own histogram
// counts and abort taxonomy.
func TestMetricsPlaneWiring(t *testing.T) {
	modes := []struct {
		name  string
		lazy  bool
		batch int
		fold  bool
	}{
		{"eager", false, 0, false},
		{"lazy", true, 0, false},
		{"lazy-batched", true, 4, false},
		{"lazy-batched-folded", true, 4, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			plane := metrics.NewPlane(4, 4)
			tr := &sumTracer{}
			cfg := DefaultConfig()
			cfg.Lazy = m.lazy
			cfg.CommitBatch = m.batch
			cfg.FoldCommutative = m.fold
			cfg.MaxRetries = 8 // some blocks escalate under contention
			cfg.Metrics = plane
			cfg.Trace = tr
			rt := New(16, cfg)
			if rt.Metrics() != plane {
				t.Fatal("Metrics() accessor lost the plane")
			}

			const workers, txPerWorker = 4, 300
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rng.New(uint64(100 + w))
					for i := 0; i < txPerWorker; i++ {
						_ = rt.AtomicWorker(w, r, func(tx *Tx) error {
							tx.Add(0, 1) // hot word: real conflicts
							tx.Store(1+w, tx.Load(1+w)+1)
							return nil
						})
					}
				}(w)
			}
			wg.Wait()

			errBoom := errors.New("boom")
			if err := rt.Atomic(rng.New(9), func(tx *Tx) error {
				tx.Store(8, 1)
				return errBoom
			}); !errors.Is(err, errBoom) {
				t.Fatalf("user abort returned %v", err)
			}

			s := plane.Snapshot()
			st := rt.Stats.Snapshot()
			if st["commits"] != workers*txPerWorker || tr.committed != st["commits"] {
				t.Fatalf("commits = %d, traced %d, want %d", st["commits"], tr.committed, workers*txPerWorker)
			}
			if st["aborts"] != tr.retries {
				t.Errorf("aborts = %d, want Σretries = %d", st["aborts"], tr.retries)
			}
			if st["kills"] != tr.kills {
				t.Errorf("kills = %d, want ΣkillsIssued = %d", st["kills"], tr.kills)
			}
			if st["irrevocable"] != tr.irrevocable {
				t.Errorf("irrevocable = %d, want %d irrevocable traces", st["irrevocable"], tr.irrevocable)
			}
			if s.Grace.Sum != uint64(tr.graceNs) {
				t.Errorf("grace-wait sum = %dns, want ΣgraceWaitNs = %dns", s.Grace.Sum, tr.graceNs)
			}
			// Every attempt is observed exactly once: committed,
			// aborted-and-retried, or the one explicit user abort.
			if want := st["commits"] + st["aborts"] + 1; s.Attempt.Count != want {
				t.Errorf("attempt histogram count = %d, want %d", s.Attempt.Count, want)
			}
			if s.Aborts[metrics.AbortExplicit] != 1 {
				t.Errorf("explicit aborts = %d, want 1", s.Aborts[metrics.AbortExplicit])
			}
			if st["kills"] > 0 && s.Aborts[metrics.AbortKilled] == 0 {
				t.Errorf("%d kills landed but the killed reason is zero", st["kills"])
			}
			if m.batch > 0 && st["batches"] > 0 && s.Drain.Count == 0 {
				t.Error("combiner ran but the drain histogram is empty")
			}
			// Sampled phase timers: with 1-in-4 sampling over 1200
			// commits, every mode has sampled at least one commit.
			var phases uint64
			for ph := 0; ph < metrics.NumCommitPhases; ph++ {
				phases += s.PhaseN[ph]
			}
			if phases == 0 {
				t.Error("no commit-phase samples recorded")
			}
			// State stays exact regardless of instrumentation.
			if got := rt.ReadCommitted(0); got != workers*txPerWorker {
				t.Fatalf("hot word = %d, want %d", got, workers*txPerWorker)
			}
		})
	}
}

// BenchmarkUncontendedTxMetrics is BenchmarkUncontendedTx on a
// caller-supplied one-shard plane (every runtime counts into a plane;
// this one pins the shard count and the default sampling rate).
func BenchmarkUncontendedTxMetrics(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewPlane(1, 0)
	rt := New(64, cfg)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.AtomicWorker(0, r, func(tx *Tx) error {
			tx.Store(i%64, uint64(i))
			return nil
		})
	}
}
