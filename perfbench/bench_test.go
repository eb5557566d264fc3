package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 0.5},
		{99, 0.5},
		{100, 0.9},
		{999, 0.95},
		{1000, 0.99},
		{1999, 0.99},
		{2000, 0.995},
		{10000, 0.999},
		{100000, 0.9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1} {
		if q == 1 {
			want = 1000
		}
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []span{{Start: 110, End: 120}, {Start: 130, End: 150}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 140}, {Start: 120, End: 160}}, 50},
		{"nested child inside child", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 180, End: 260}}, 60},
		{"outside the parent", []span{{Start: 10, End: 90}, {Start: 200, End: 210}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload with a tiny budget, one untraced and one
// traced round, through the full correctness gate, and checks that the
// reported metrics are exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := bench(config{
					workload: w.Name, seed: 3, trace: traced, workdir: t.TempDir(),
					budget: 40, rounds: 1,
				}, io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Attempted != 40 {
					t.Errorf("trace=%v: correct=%v attempted=%d, want true and 40", traced, res.Correct, res.Attempted)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s missing", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s in %s, BENCHMARK.json says %s", traced, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}
