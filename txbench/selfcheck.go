package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared is the part of BENCHMARK.json the self-check compares.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeSeconds is the window of the self-check's short runs.
const smokeSeconds = 2

// runSelfcheck checks the benchmark's own code: BENCHMARK.json names
// exactly the workloads txbench has and, for each, the metric names
// and units a short untraced and a short traced run emit; every name
// matches [A-Za-z0-9_.-]+; and every smoke run passes the
// correctness gate.
func runSelfcheck(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var dec declared
	if err := json.Unmarshal(b, &dec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(dec.Workloads) != len(specs) {
		return fmt.Errorf("%s declares %d workloads, txbench has %d", path, len(dec.Workloads), len(specs))
	}
	for _, w := range dec.Workloads {
		if _, err := specByName(w.Name); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, mt := range list {
			out[mt.Name] = mt.Unit
		}
		return out
	}
	e2e, layer := units(dec.EndToEnd), units(dec.PerLayer)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			want, kind := e2e, "end_to_end"
			if traced {
				want, kind = layer, "per_layer"
			}
			res := run(sp, 1, smokeSeconds, traced)
			if !res.correct {
				return fmt.Errorf("%s (trace %v): correctness gate: %v", sp.name, traced, res.err)
			}
			if _, err := res.json(); err != nil {
				return fmt.Errorf("%s (trace %v): %w", sp.name, traced, err)
			}
			if err := compareMetrics(res.metrics, want); err != nil {
				return fmt.Errorf("%s (trace %v) against %s %s: %w", sp.name, traced, path, kind, err)
			}
			fmt.Printf("txbench: selfcheck %s trace=%v: %d metrics ok\n", sp.name, traced, len(res.metrics))
		}
	}
	return nil
}

// compareMetrics checks that got holds exactly the declared names,
// each once, valid and with the declared unit.
func compareMetrics(got []metric, want map[string]string) error {
	seen := map[string]bool{}
	for _, mt := range got {
		if !metricName.MatchString(mt.name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", mt.name)
		}
		if seen[mt.name] {
			return fmt.Errorf("metric %s emitted twice", mt.name)
		}
		seen[mt.name] = true
		unit, ok := want[mt.name]
		if !ok {
			return fmt.Errorf("metric %s is not declared", mt.name)
		}
		if mt.unit == "" || unit != mt.unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", mt.name, mt.unit, unit)
		}
	}
	for name := range want {
		if !seen[name] {
			return fmt.Errorf("declared metric %s is not emitted", name)
		}
	}
	return nil
}
