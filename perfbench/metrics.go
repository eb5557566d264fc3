package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// endToEnd is what a user of the monitor sees, over the untraced rounds.
type endToEnd struct {
	metrics []metric
	// attempted and failed are the window's requests and those that got
	// a transport error, a 5xx or an Unverified verdict.
	attempted, failed int
	// Reported beside the metrics: the false-alarm split, the latency
	// tail, and the smallest round's sample count with the highest
	// percentile it supports (latency percentiles are taken per round).
	falseAlarms, noVolume, forbidden int
	tailN                            int
	tail, p90, p99                   float64
}

// computeEndToEnd reports each timing and cost as the median over the
// untraced rounds of its per-round value, so a burst of interference from
// outside the process moves one round, not the figure; the counts behind
// the ratios are pooled.
func computeEndToEnd(rounds []*roundResult) endToEnd {
	var e endToEnd
	var rps, p50, p90, p99, cpu, heap, setups []float64
	unverified, tailN := 0, 0
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		if r.traced {
			continue
		}
		n := len(r.samples)
		lat := make([]float64, n)
		for i, s := range r.samples {
			lat[i] = float64(s.latency) / 1e6
			switch s.class {
			case respFalseAlarm:
				e.falseAlarms++
			case respNoVolume:
				e.noVolume++
			case respForbidden:
				e.forbidden++
			case respFailed:
				e.failed++
			}
		}
		sort.Float64s(lat)
		e.attempted += n
		unverified += r.after.outcomes[monitor.Unverified] - r.before.outcomes[monitor.Unverified]
		rps = append(rps, float64(n)/r.window.Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p90 = append(p90, percentile(lat, 0.90))
		p99 = append(p99, percentile(lat, 0.99))
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e3/float64(max(n, 1)))
		heap = append(heap, float64(r.liveHeap)/(1<<20))
		if tailN == 0 || n < tailN {
			tailN = n
		}
	}
	e.failed += unverified
	e.tailN = tailN
	e.tail = tailPercentile(tailN)
	e.p90, e.p99 = median(p90), median(p99)
	e.metrics = []metric{
		{"throughput_rps", median(rps), "1/s"},
		{"latency_p50_ms", median(p50), "ms"},
		{"cpu_us_per_req", median(cpu), "us"},
		{"verdict_accuracy", 1 - float64(e.falseAlarms)/float64(max(e.attempted, 1)), "ratio"},
		{"heap_live_mb", median(heap), "MiB"},
		{"setup_s", median(setups), "s"},
	}
	return e
}

func (e endToEnd) value(name string) float64 {
	for _, m := range e.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// outcomeMetric names a verdict outcome as a metric
// ("violation:postcondition" -> "monitor.verdicts.violation-postcondition").
func outcomeMetric(o monitor.Outcome) string {
	return "monitor.verdicts." + strings.ReplaceAll(o.String(), ":", "-")
}

// computePerLayer attributes the traced rounds' cost to the layers.
// untracedCPU is the untraced rounds' cpu_us_per_req, the base of the
// tracing overhead.
func computePerLayer(rounds []*roundResult, untracedCPU float64) []metric {
	var (
		n, traced, replayed            int
		cpu, replayTime                time.Duration
		frontSelf, monSpan, monCovered int64
		busy, snapBytes                int64
		volStart, volEnd               float64
		kinds                          = map[string]int{}
		kindTime                       = map[string]int64{}
		d                              counters
	)
	for _, r := range rounds {
		replayed += r.replayed
		replayTime += r.replayTime
		if !r.traced {
			continue
		}
		traced++
		n += len(r.samples)
		cpu += r.cpu
		volStart += r.before.volumes
		volEnd += r.after.volumes
		d.add(r.before, r.after)

		byReq := map[uint64][]span{}
		for _, s := range r.spans {
			if s.Layer == layerCloud {
				kinds[s.Kind]++
				kindTime[s.Kind] += s.dur()
				busy += s.Busy
				if s.Kind == kindSnapshotPre || s.Kind == kindSnapshotPost {
					snapBytes += s.Bytes
				}
			}
			if s.Req != 0 {
				byReq[s.Req] = append(byReq[s.Req], s)
			}
		}
		for _, spans := range byReq {
			var mons, clouds []span
			for _, s := range spans {
				switch s.Layer {
				case layerMonitor:
					mons = append(mons, s)
				case layerCloud:
					clouds = append(clouds, s)
				}
			}
			for _, s := range spans {
				switch s.Layer {
				case layerFront:
					frontSelf += selfTime(s, mons)
				case layerMonitor:
					monSpan += s.dur()
					monCovered += s.dur() - selfTime(s, clouds)
				}
			}
		}
	}
	if traced == 0 {
		return nil
	}
	nf := float64(max(n, 1))
	perReq := func(x float64) float64 { return x / nf }
	usPerReq := func(ns float64) float64 { return ns / 1e3 / nf }
	// The provider's own time: its snapshot stages minus the cloud calls
	// inside them.
	snapStages := (d.stages["pre_snapshot"].Sum + d.stages["post_snapshot"].Sum) * 1e9
	osbSelf := snapStages - float64(kindTime[kindSnapshotPre]+kindTime[kindSnapshotPost]+kindTime[kindAuth])
	gets := float64(kinds[kindSnapshotPre] + kinds[kindSnapshotPost])

	imbalance := 1.0
	if len(d.routed) > 0 {
		var sum, hi uint64
		for _, v := range d.routed {
			sum += v
			hi = max(hi, v)
		}
		if sum > 0 {
			imbalance = float64(hi) / (float64(sum) / float64(len(d.routed)))
		}
	}
	overhead := 0.0
	if untracedCPU > 0 {
		overhead = (usPerReq(float64(cpu.Nanoseconds()))/untracedCPU - 1) * 100
	}

	out := []metric{
		{"fleet.front_self_us", usPerReq(float64(frontSelf)), "us"},
		{"fleet.route_imbalance", imbalance, "ratio"},
		{"fleet.fence_waits", float64(d.fenceWaits), "count"},
		{"fleet.bus_msgs_per_req", perReq(float64(d.busSent)), "1/req"},
		{"monitor.span_us", usPerReq(float64(monSpan)), "us"},
		{"monitor.self_us", usPerReq(float64(monSpan-monCovered) - osbSelf), "us"},
	}
	for _, name := range obs.StageNames() {
		h := d.stages[name]
		out = append(out,
			metric{"monitor.stage." + name + ".p50_us", float64(h.Quantile(0.50)) / 1e3, "us"},
			metric{"monitor.stage." + name + ".p99_us", float64(h.Quantile(0.99)) / 1e3, "us"})
	}
	out = append(out,
		metric{"monitor.paths_per_req", perReq(float64(d.pathsFetched)), "1/req"},
		metric{"monitor.coalesced_per_req", perReq(float64(d.coalesced)), "1/req"})
	for o := monitor.OK; o <= monitor.Unverified; o++ {
		out = append(out, metric{outcomeMetric(o), perReq(float64(d.outcomes[o])), "ratio"})
	}
	return append(out,
		metric{"osbinding.gets_per_req", perReq(gets), "1/req"},
		metric{"osbinding.gets_pre_per_req", perReq(float64(kinds[kindSnapshotPre])), "1/req"},
		metric{"osbinding.gets_post_per_req", perReq(float64(kinds[kindSnapshotPost])), "1/req"},
		metric{"osbinding.bytes_decoded_per_req", perReq(float64(snapBytes)), "B/req"},
		metric{"osbinding.snapshot_self_us", usPerReq(osbSelf), "us"},
		metric{"osbinding.retries_per_req", perReq(float64(d.retries)), "1/req"},
		metric{"osbinding.auth_refreshes", float64(d.authRefreshes), "count"},
		metric{"cloud.snapshot_requests_per_req", perReq(gets), "1/req"},
		metric{"cloud.forward_requests_per_req", perReq(float64(kinds[kindForward])), "1/req"},
		metric{"cloud.auth_requests_per_req", perReq(float64(kinds[kindAuth])), "1/req"},
		metric{"cloud.busy_us_per_req", usPerReq(float64(busy)), "us"},
		metric{"cloud.volumes_per_project_start", volStart / float64(traced), "count"},
		metric{"cloud.volumes_per_project_end", volEnd / float64(traced), "count"},
		metric{"audit.records_per_req", perReq(float64(d.auditRecords)), "1/req"},
		metric{"audit.bytes_per_req", perReq(float64(d.auditBytes)), "B/req"},
		metric{"evidence.replay_records_per_s", float64(replayed) / max(replayTime.Seconds(), 1e-9), "1/s"},
		metric{"runtime.allocs_per_req", perReq(float64(d.runtime.allocs)), "1/req"},
		metric{"runtime.alloc_bytes_per_req", perReq(float64(d.runtime.allocBytes)), "B/req"},
		metric{"runtime.gc_cycles_per_kreq", perReq(float64(d.runtime.gcCycles)) * 1000, "1/kreq"},
		metric{"runtime.gc_pause_us_per_req", perReq(d.runtime.gcPause * 1e6), "us"},
		metric{"trace.overhead_pct", overhead, "%"},
	)
}

// formatLine renders one metric for the human-readable report.
func formatLine(m metric) string {
	return fmt.Sprintf("%-40s %14.4f %s", m.Name, m.Value, m.Unit)
}
