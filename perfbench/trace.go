package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cloudmon/internal/loadgen"
	"cloudmon/internal/openstack"
)

// Span layers and cloud request kinds, as written to the span file.
const (
	layerClient  = "client"
	layerFront   = "front"
	layerMonitor = "monitor"
	layerCloud   = "cloud"

	kindSnapshotPre  = "snapshot-pre"
	kindSnapshotPost = "snapshot-post"
	kindForward      = "forward"
	kindAuth         = "auth"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req, the id the client wrapper minted; times are nanoseconds
// since the recorder's epoch.
type span struct {
	Req   uint64 `json:"req"`
	Layer string `json:"layer"`
	Kind  string `json:"kind,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Busy is the cloud handler's time without the simulated RTT.
	Busy int64 `json:"busy_ns,omitempty"`
	// Bytes is the cloud response body size.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// sample is the client-observed result of one request.
type sample struct {
	latency time.Duration
	// class is how the correctness gate judged the response.
	class respClass
}

type respClass int

const (
	respOK respClass = iota
	// respForbidden: a role outside Table I was refused with 412.
	respForbidden
	// respNoVolume: a permitted role was refused because the volume it
	// addressed does not exist in the cloud — a correct refusal.
	respNoVolume
	// respFalseAlarm: a permitted request on the honest cloud was
	// answered with a violation (409) or refused (412).
	respFalseAlarm
	// respFailed: transport error or 5xx.
	respFailed
	// respWrong: a response the gate rejects outright (a forbidden
	// request that was not refused, or an unexpected status).
	respWrong
)

type reqKey struct{}

// recorder is the benchmark's view from outside the program: the client
// wrapper, the handler wrappers and the monitor → cloud transport all
// report to it. Only samples and spans inside the timed window are kept.
type recorder struct {
	traced bool
	epoch  time.Time
	timed  atomic.Bool
	nextID atomic.Uint64
	// issued counts every request through the client wrapper, including
	// prepopulation, for the one-verdict-per-request check.
	issued atomic.Int64

	mu      sync.Mutex
	samples []sample
	spans   []span
	// wrong counts responses the gate rejects; the first few are kept
	// to explain the failure.
	wrong    int
	wrongWhy []string

	// inflight maps an OS thread to the request it is serving (traced
	// rounds only). The state provider's cloud reads carry no request
	// context, but in process they run on the goroutine that issued the
	// request; the client wrapper locks that goroutine to its thread for
	// the request's lifetime, which is how the reads' spans get the
	// request's id.
	inflight sync.Map
}

// flight is the per-request state the cloud transport consults.
type flight struct {
	id        uint64
	forwarded bool
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, epoch: time.Now()}
}

func (rec *recorder) now() int64 { return int64(time.Since(rec.epoch)) }

func (rec *recorder) addSpan(s span) {
	if !rec.timed.Load() {
		return
	}
	rec.mu.Lock()
	rec.spans = append(rec.spans, s)
	rec.mu.Unlock()
}

// clientTransport is the client wrapper: it mints each request's id,
// times it as the client sees it, and classifies the response for the
// correctness gate.
type clientTransport struct {
	rec   *recorder
	next  http.RoundTripper
	roles map[string]string // token -> role
	// cloud answers whether a refused request's volume exists.
	cloud *openstack.Cloud
}

func (t *clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := t.rec
	id := rec.nextID.Add(1)
	rec.issued.Add(1)
	r = r.WithContext(context.WithValue(r.Context(), reqKey{}, id))
	var tid int
	if rec.traced {
		runtime.LockOSThread()
		tid = syscall.Gettid()
		rec.inflight.Store(tid, &flight{id: id})
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	latency := time.Since(start)
	if rec.traced {
		rec.inflight.Delete(tid)
		runtime.UnlockOSThread()
		s := int64(start.Sub(rec.epoch))
		rec.addSpan(span{Req: id, Layer: layerClient, Start: s, End: s + int64(latency)})
	}
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	class, why := t.classify(r, status)
	rec.mu.Lock()
	if class == respWrong {
		rec.wrong++
		if len(rec.wrongWhy) < 5 {
			rec.wrongWhy = append(rec.wrongWhy, why)
		}
	}
	if rec.timed.Load() {
		rec.samples = append(rec.samples, sample{latency: latency, class: class})
	}
	rec.mu.Unlock()
	return resp, err
}

// classify judges one response against the honest cloud.
func (t *clientTransport) classify(r *http.Request, status int) (respClass, string) {
	op, project, volume := parseVolumeRequest(r.Method, r.URL.Path)
	role, known := t.roles[r.Header.Get("X-Auth-Token")]
	if !known {
		role = loadgen.RoleAnonymous
	}
	cell := func() string { return fmt.Sprintf("%s %s as %s", r.Method, r.URL.Path, role) }
	switch {
	case status == 0 || status >= 500:
		return respFailed, ""
	case !permitted(op, role):
		if status == http.StatusPreconditionFailed {
			return respForbidden, ""
		}
		return respWrong, fmt.Sprintf("%s: forbidden role got %d, want 412", cell(), status)
	case status >= 200 && status <= 299:
		return respOK, ""
	case status == http.StatusConflict:
		return respFalseAlarm, ""
	case status == http.StatusPreconditionFailed || status == http.StatusNotFound:
		if volume != "" {
			if _, ok := t.cloud.Volumes.Volume(project, volume); !ok {
				return respNoVolume, ""
			}
		}
		return respFalseAlarm, ""
	}
	return respWrong, fmt.Sprintf("%s: unexpected status %d", cell(), status)
}

// parseVolumeRequest maps a workload request onto its operation, project
// and volume id ("" for the collection).
func parseVolumeRequest(method, path string) (loadgen.OpKind, string, string) {
	// /projects/{project}/volumes[/{volume}]
	segs := strings.Split(strings.Trim(path, "/"), "/")
	project, volume := "", ""
	if len(segs) >= 2 {
		project = segs[1]
	}
	if len(segs) >= 4 {
		volume = segs[3]
	}
	switch method {
	case http.MethodPost:
		return loadgen.OpCreateVolume, project, volume
	case http.MethodPut:
		return loadgen.OpUpdateVolume, project, volume
	case http.MethodDelete:
		return loadgen.OpDeleteVolume, project, volume
	}
	return loadgen.OpGetVolume, project, volume
}

// spanHandler times a handler boundary (the fleet front, a monitor) in
// traced rounds; untraced rounds get the handler itself.
func (rec *recorder) spanHandler(layer string, next http.Handler) http.Handler {
	if !rec.traced {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := r.Context().Value(reqKey{}).(uint64)
		start := rec.now()
		next.ServeHTTP(w, r)
		rec.addSpan(span{Req: id, Layer: layer, Start: start, End: rec.now()})
	})
}

// cloudTransport is the monitor → cloud http.Client transport: it charges
// the simulated RTT, and in traced rounds times each call, tells snapshot
// reads, forwards and service-account auth apart, and counts the bytes
// the cloud returned.
type cloudTransport struct {
	rec  *recorder
	next http.RoundTripper
	rtt  time.Duration
}

func (t *cloudTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := t.rec
	if !rec.traced {
		if t.rtt > 0 {
			time.Sleep(t.rtt)
		}
		return t.next.RoundTrip(r)
	}
	start := rec.now()
	if t.rtt > 0 {
		time.Sleep(t.rtt)
	}
	busyStart := rec.now()
	resp, err := t.next.RoundTrip(r)
	end := rec.now()

	s := span{Layer: layerCloud, Start: start, End: end, Busy: end - busyStart}
	if err == nil && resp.ContentLength > 0 {
		s.Bytes = resp.ContentLength
	}
	fl, _ := rec.inflight.Load(syscall.Gettid())
	f, _ := fl.(*flight)
	if f != nil {
		s.Req = f.id
	}
	_, forward := r.Context().Value(reqKey{}).(uint64)
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/identity/v3/auth/tokens":
		s.Kind = kindAuth
	case forward:
		s.Kind = kindForward
		if f != nil {
			f.forwarded = true
		}
	case f != nil && f.forwarded:
		s.Kind = kindSnapshotPost
	default:
		s.Kind = kindSnapshotPre
	}
	rec.addSpan(s)
	return resp, err
}

// selfTime is a span's duration minus the part of it its children cover
// (overlapping children are counted once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	open := false
	for _, v := range ivs {
		if open && v.s <= curE {
			curE = max(curE, v.e)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = v.s, v.e, true
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
