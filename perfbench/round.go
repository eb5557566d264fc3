package main

import (
	"fmt"
	"runtime"
	"time"

	"cloudmon/internal/loadgen"
	"cloudmon/internal/monitor"
)

// roundResult is what one round measured inside its timed window.
type roundResult struct {
	traced        bool
	setup         time.Duration // deploy, seeding and prepopulation
	window        time.Duration
	cpu           time.Duration
	liveHeap      uint64
	samples       []sample
	spans         []span
	before, after counters
	replayed      int
	replayTime    time.Duration
}

// runRound deploys the workload afresh under dir, drives one round with
// loadgen.Run and checks it with the correctness gate.
func runRound(w workload, seed int64, traced bool, dir string) (*roundResult, error) {
	rec := newRecorder(traced)
	res := &roundResult{traced: traced}
	// Collect the previous round's garbage before timing set-up, and
	// again before the window opens, so no round pays for another.
	runtime.GC()
	t0 := time.Now()
	d, err := deploy(w, dir, rec)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	// loadgen.Run samples Target.Outcomes once after prepopulation, right
	// before its workers start, and once right after they finish: those
	// two calls open and close the timed window.
	var (
		winStart time.Time
		cpu0     time.Duration
		calls    int
	)
	// The gate syncs and verifies the audit trails before this close.
	defer d.close()

	d.target.Outcomes = func() map[monitor.Outcome]int {
		calls++
		switch calls {
		case 1:
			res.setup = time.Since(t0)
			runtime.GC()
			res.before = readCounters(d)
			rec.timed.Store(true)
			cpu0 = cpuTime()
			winStart = time.Now()
		case 2:
			res.window = time.Since(winStart)
			res.cpu = cpuTime() - cpu0
			rec.timed.Store(false)
			res.after = readCounters(d)
			// What the deployment still holds after the round's work:
			// state kept in memory shows, collector timing does not.
			runtime.GC()
			res.liveHeap = liveHeap()
		}
		return d.outcomes()
	}
	sc := loadgen.Scenario{
		Name:        w.Name,
		Mix:         w.Mix,
		Clients:     clients,
		Requests:    w.Budget,
		Prepopulate: w.Prepopulate,
		Seed:        seed,
	}
	if _, err := loadgen.Run(sc, d.target); err != nil {
		return nil, err
	}
	if calls != 2 {
		return nil, fmt.Errorf("timed window not closed (%d outcome samples)", calls)
	}
	res.samples, res.spans = rec.samples, rec.spans
	if res.replayed, res.replayTime, err = checkRound(w, d, rec); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return res, nil
}
