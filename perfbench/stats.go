package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
)

// percentile returns the q-quantile of sorted values by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLadder are the percentiles a latency tail is reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n, or 0 when not even the median has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read at the window's edges.
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCPauses     = "/sched/pauses/total/gc:seconds"
	rmLiveHeap     = "/gc/heap/live:bytes"
)

// runtimeCounters are the cumulative Go runtime counters of the process.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcPause                      float64 // seconds, from bucket midpoints
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: rmAllocObjects}, {Name: rmAllocBytes}, {Name: rmGCCycles}, {Name: rmGCPauses}}
	metrics.Read(s)
	rc := runtimeCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			rc.gcPause += float64(c) * (lo + hi) / 2
		}
	}
	return rc
}

// liveHeap is the heap the last collection marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: rmLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// counters is everything the benchmark reads from the program's own
// accounting at one edge of the timed window, summed over instances.
type counters struct {
	outcomes      map[monitor.Outcome]int
	pathsFetched  uint64
	coalesced     uint64
	retries       uint64
	authRefreshes uint64
	routed        map[string]uint64
	fenceWaits    uint64
	busSent       uint64
	auditRecords  uint64
	auditBytes    int64
	stages        map[string]obs.HistSnapshot
	volumes       float64 // mean volumes per tenant project
	runtime       runtimeCounters
}

func readCounters(d *deployment) counters {
	c := counters{outcomes: d.outcomes(), stages: map[string]obs.HistSnapshot{}}
	for _, in := range d.instances {
		fs := in.sys.Monitor.FetchStats()
		c.pathsFetched += fs.PathsFetched
		c.coalesced += fs.Coalesced
		ps := in.sys.Provider.Stats()
		c.retries += ps.Retries
		c.authRefreshes += ps.AuthRefreshes
		if in.bus != nil {
			sent, _ := in.bus.Stats()
			c.busSent += sent
		}
		for _, n := range in.audit.Counts() {
			c.auditRecords += n
		}
		c.auditBytes += dirBytes(in.auditDir)
		tr := in.sys.Monitor.Tracer()
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			c.stages[s.String()] = addHist(c.stages[s.String()], tr.Stage(s).Snapshot(), 1)
		}
	}
	if d.front != nil {
		st := d.front.Stats()
		c.routed, c.fenceWaits = st.Routed, st.FenceWaits
	}
	for _, tn := range d.tenants {
		c.volumes += float64(len(d.cloud.Volumes.Volumes(tn.ProjectID)))
	}
	c.volumes /= float64(len(d.tenants))
	c.runtime = readRuntime()
	return c
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// addHist returns a + sign·b bucket-wise (b's shape wins when a is empty).
func addHist(a, b obs.HistSnapshot, sign int64) obs.HistSnapshot {
	if len(a.Counts) == 0 {
		a = obs.HistSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts))}
	}
	out := obs.HistSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts))}
	for i := range a.Counts {
		out.Counts[i] = uint64(int64(a.Counts[i]) + sign*int64(b.Counts[i]))
	}
	out.Count = uint64(int64(a.Count) + sign*int64(b.Count))
	out.Sum = a.Sum + float64(sign)*b.Sum
	return out
}

// add accumulates after − before into c.
func (c *counters) add(before, after counters) {
	if c.outcomes == nil {
		c.outcomes, c.routed, c.stages = map[monitor.Outcome]int{}, map[string]uint64{}, map[string]obs.HistSnapshot{}
	}
	for o, v := range after.outcomes {
		c.outcomes[o] += v - before.outcomes[o]
	}
	for id, v := range after.routed {
		c.routed[id] += v - before.routed[id]
	}
	for name, h := range after.stages {
		c.stages[name] = addHist(addHist(c.stages[name], h, 1), before.stages[name], -1)
	}
	c.pathsFetched += after.pathsFetched - before.pathsFetched
	c.coalesced += after.coalesced - before.coalesced
	c.retries += after.retries - before.retries
	c.authRefreshes += after.authRefreshes - before.authRefreshes
	c.fenceWaits += after.fenceWaits - before.fenceWaits
	c.busSent += after.busSent - before.busSent
	c.auditRecords += after.auditRecords - before.auditRecords
	c.auditBytes += after.auditBytes - before.auditBytes
	c.runtime.allocs += after.runtime.allocs - before.runtime.allocs
	c.runtime.allocBytes += after.runtime.allocBytes - before.runtime.allocBytes
	c.runtime.gcCycles += after.runtime.gcCycles - before.runtime.gcCycles
	c.runtime.gcPause += after.runtime.gcPause - before.runtime.gcPause
}
