// Command perfbench is the repository's benchmark: it deploys the cloud
// monitor in process, drives one workload with closed-loop clients,
// checks that every answer was right, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) with the last line a JSON
// summary. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Rounds per run: at least minRounds (setup_s is their median), and no
// new round once maxWall has passed, so a run ends well within 3 minutes
// even on a much slower commit.
const (
	minRounds = 3
	maxWall   = 100 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// budget, when positive, overrides the workload's per-round request
	// budget (the tests' small smoke runs).
	budget int
	// rounds, when positive, runs exactly this many rounds per side.
	rounds int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "timed seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from traced rounds")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for audit trails, packs and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c.trace = trace == 1
	res, err := bench(c, out)
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

// result is the JSON summary line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs the workload and its correctness gate, prints the report and
// returns the summary; any gate failure is an error and no figure.
func bench(c config, out io.Writer) (*result, error) {
	w, err := lookupWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	if c.budget > 0 {
		w.Budget = c.budget
	}
	dir := filepath.Join(c.workdir, fmt.Sprintf("run-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := checkMutants(); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}

	// Traced runs alternate untraced and traced rounds, half the time
	// each, so the tracing overhead is measured under the same conditions.
	need := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		need /= 2
	}
	start := time.Now()
	var rounds []*roundResult
	var timed [2]time.Duration
	var count [2]int
	done := func(side int) bool {
		if c.rounds > 0 {
			return count[side] >= c.rounds
		}
		return count[side] > 0 && (timed[side] >= need && count[side] >= minRounds || time.Since(start) > maxWall)
	}
	for i := 0; !done(0) || c.trace && !done(1); i++ {
		side := 0
		if c.trace && i%2 == 1 {
			side = 1
		}
		if done(side) {
			continue
		}
		r, err := runRound(w, c.seed*7919+int64(i), side == 1, filepath.Join(dir, fmt.Sprintf("round-%02d", i)))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		timed[side] += r.window
		count[side]++
	}

	e := computeEndToEnd(rounds)
	fmt.Fprintf(out, "workload %s, seed %d: %d rounds of %d requests, %d closed-loop clients, %d tenant project(s), %s simulated RTT, in process\n",
		w.Name, c.seed, len(rounds), w.Budget, clients, w.Tenants, w.RTT)
	fmt.Fprintf(out, "correctness gate: passed (forbidden roles refused %d times; %d refusals of missing volumes)\n", e.forbidden, e.noVolume)
	for _, m := range e.metrics {
		fmt.Fprintln(out, formatLine(m))
	}
	fmt.Fprintln(out, formatLine(metric{"latency_p90_ms", e.p90, "ms"}))
	fmt.Fprintln(out, formatLine(metric{"latency_p99_ms", e.p99, "ms"}))
	fmt.Fprintln(out, formatLine(metric{"false_alarm_rate", float64(e.falseAlarms) / float64(max(e.attempted, 1)), "ratio"}))
	fmt.Fprintln(out, formatLine(metric{"error_rate", float64(e.failed) / float64(max(e.attempted, 1)), "ratio"}))
	fmt.Fprintf(out, "latency percentiles are medians over rounds of at least %d samples each; p%g is the highest percentile with at least 10 samples beyond it\n",
		e.tailN, e.tail*100)

	res := &result{Correct: true, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]resultValue{}}
	report := e.metrics
	if c.trace {
		report = computePerLayer(rounds, e.value("cpu_us_per_req"))
		for _, m := range report {
			fmt.Fprintln(out, formatLine(m))
		}
		var spans []span
		for _, r := range rounds {
			spans = append(spans, r.spans...)
		}
		path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, c.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
	}
	for _, m := range report {
		res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	return res, nil
}
