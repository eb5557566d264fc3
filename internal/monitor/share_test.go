package monitor

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// projectReadKey keys a read like osbinding does: user.id.groups by the
// subject token, every other path by the project alone, so different
// users and volumes of one project share reads.
func projectReadKey(ctx *RequestContext, path string) string {
	if path == "user.id.groups" {
		return path + " " + ctx.Token
	}
	return path + " " + ctx.Params["project_id"]
}

// gateProvider serves one fixed state. The first read of path by token
// (in phase, when set) signals entered and blocks until release is
// closed; every read is logged as "token phase path".
type gateProvider struct {
	env                ocl.MapEnv
	path, token, phase string
	entered            chan struct{}
	release            chan struct{}
	once               sync.Once

	mu    sync.Mutex
	calls []string
}

func newGateProvider(path, token string) *gateProvider {
	return &gateProvider{
		env:     env(2, 10, "available", "admin"),
		path:    path,
		token:   token,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (p *gateProvider) ReadKey(ctx *RequestContext, path string) string {
	return projectReadKey(ctx, path)
}

func (p *gateProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	p.mu.Lock()
	for _, path := range paths {
		p.calls = append(p.calls, ctx.Token+" "+ctx.Phase+" "+path)
	}
	p.mu.Unlock()
	if len(paths) == 1 && paths[0] == p.path && ctx.Token == p.token && (p.phase == "" || p.phase == ctx.Phase) {
		gated := false
		p.once.Do(func() { gated = true })
		if gated {
			close(p.entered)
			<-p.release
		}
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// reads counts the logged reads equal to call.
func (p *gateProvider) reads(call string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.calls {
		if c == call {
			n++
		}
	}
	return n
}

// gateForwarder answers 200. The first forward by token signals entered
// and blocks until release is closed. Safe for concurrent use.
type gateForwarder struct {
	token   string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (f *gateForwarder) Forward(r *http.Request, _ *Route, _ map[string]string) (*BackendResponse, error) {
	if f.token != "" && r.Header.Get("X-Auth-Token") == f.token {
		gated := false
		f.once.Do(func() { gated = true })
		if gated {
			close(f.entered)
			<-f.release
		}
	}
	return &BackendResponse{StatusCode: 200, Header: http.Header{}, Body: []byte("{}")}, nil
}

// serveAsync serves one request on its own goroutine; the channel
// yields the response once it is written.
func serveAsync(m *Monitor, method, url, token string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(method, url, nil)
		req.Header.Set("X-Auth-Token", token)
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, req)
		done <- rec
	}()
	return done
}

// await fails the test when ch yields nothing within a generous bound —
// the symptom of a request waiting on a flight it must not have joined.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

// TestFlightJoinRule pins the join rule case by case on the flight group
// itself: a read joins only a clean flight of its project whose write
// epoch has not moved, a post-state read only a flight that started after
// its forward returned, and a mutation never.
func TestFlightJoinRule(t *testing.T) {
	cases := []struct {
		name string
		// between runs after the flight started and before the second
		// acquire; it returns the acquire's after bound.
		before  func(ep *writeEpochs)
		between func(ep *writeEpochs, g *flightGroup) uint64
		project string
		join    bool
		want    bool
	}{
		{name: "clean read joins", project: "p1", join: true, want: true},
		{name: "mutation never joins", project: "p1", join: false, want: false},
		{name: "other project", project: "p2", join: true, want: false},
		{name: "write started since", project: "p1", join: true, want: false,
			between: func(ep *writeEpochs, _ *flightGroup) uint64 { ep.begin("p1"); return 0 }},
		{name: "write completed since", project: "p1", join: true, want: false,
			between: func(ep *writeEpochs, _ *flightGroup) uint64 { ep.begin("p1").end(); return 0 }},
		{name: "fleet invalidation since", project: "p1", join: true, want: false,
			between: func(ep *writeEpochs, _ *flightGroup) uint64 { ep.bump("p1"); return 0 }},
		{name: "write of another project since", project: "p1", join: true, want: true,
			between: func(ep *writeEpochs, _ *flightGroup) uint64 { ep.begin("p2").end(); return 0 }},
		{name: "started during a write", project: "p1", join: true, want: false,
			before: func(ep *writeEpochs) { ep.begin("p1") }},
		{name: "post read, flight older than forward", project: "p1", join: true, want: false,
			between: func(_ *writeEpochs, g *flightGroup) uint64 { return g.started() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ep writeEpochs
			g := newFlightGroup()
			if tc.before != nil {
				tc.before(&ep)
			}
			fl, lead := g.acquire("k", "p1", true, 0, &ep)
			if !lead {
				t.Fatal("first read did not lead")
			}
			var after uint64
			if tc.between != nil {
				after = tc.between(&ep, g)
			}
			got, lead2 := g.acquire("k", tc.project, tc.join, after, &ep)
			if joined := !lead2; joined != tc.want {
				t.Fatalf("joined = %v, want %v", joined, tc.want)
			}
			if tc.want && got != fl {
				t.Fatal("joined a different flight")
			}
			if lead2 {
				g.land("k", got, ocl.IntVal(2), true, nil)
			}
			g.land("k", fl, ocl.IntVal(1), true, nil)
			if _, lead := g.acquire("k", "p1", true, 0, &ep); !lead {
				t.Fatal("a landed flight was joined")
			}
		})
	}
	// A post-state read joins a flight that started after its forward.
	var ep writeEpochs
	g := newFlightGroup()
	after := g.started()
	fl, _ := g.acquire("k", "p1", true, 0, &ep)
	if got, lead := g.acquire("k", "p1", true, after, &ep); lead || got != fl {
		t.Fatal("post read refused a flight that started after its forward")
	}
}

// TestShareNoJoinAcrossCompletedWrite is the regression test for the
// stale join: request A's read blocks in the provider, a write to the
// project is forwarded and completes, and request B — same read key —
// arrives afterwards. B must issue its own read (and so finish while A
// is still blocked) instead of sharing a value read before the write.
func TestShareNoJoinAcrossCompletedWrite(t *testing.T) {
	p := newGateProvider("user.id.groups", "tokA")
	m := newPolicyMonitor(t, Config{Provider: p, Forward: &gateForwarder{}})
	release := sync.OnceFunc(func() { close(p.release) })
	defer release()

	a := serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokA")
	await(t, p.entered, "request A's read to block")

	await(t, serveAsync(m, http.MethodDelete, "/projects/p1/volumes/v2", "tokW"), "the write to complete")
	b := await(t, serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokA"),
		"request B (it joined A's flight, which started before the write)")
	if b.Code != 200 {
		t.Fatalf("request B: status %d, want 200", b.Code)
	}
	if n := p.reads("tokA pre user.id.groups"); n != 2 {
		t.Fatalf("user.id.groups read %d times for tokA, want 2 (A's and B's own)", n)
	}
	if fs := m.FetchStats(); fs.Coalesced != 0 {
		t.Fatalf("%d reads joined a flight", fs.Coalesced)
	}
	release()
	if rec := await(t, a, "request A"); rec.Code != 200 {
		t.Fatalf("request A: status %d, want 200", rec.Code)
	}
}

// TestSharePostReadSkipsOlderFlight: request A's post-state read must not
// join a flight that started before A's forward returned — it could not
// observe A's effect. X's read of project.volumes starts while A's
// forward is held and stays blocked; A's post read must lead its own.
func TestSharePostReadSkipsOlderFlight(t *testing.T) {
	p := newGateProvider("project.volumes", "tokX")
	fwd := &gateForwarder{token: "tokA", entered: make(chan struct{}), release: make(chan struct{})}
	m := newPolicyMonitor(t, Config{Provider: p, Forward: fwd})
	release := sync.OnceFunc(func() { close(p.release) })
	defer release()
	releaseFwd := sync.OnceFunc(func() { close(fwd.release) })
	defer releaseFwd()

	a := serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokA")
	await(t, fwd.entered, "request A's forward")
	x := serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokX")
	await(t, p.entered, "request X's read to block")
	releaseFwd()

	if rec := await(t, a, "request A (its post read joined a flight older than its forward)"); rec.Code != 200 {
		t.Fatalf("request A: status %d, want 200", rec.Code)
	}
	if n := p.reads("tokA post project.volumes"); n != 1 {
		t.Fatalf("A issued %d post reads of project.volumes, want 1", n)
	}
	if fs := m.FetchStats(); fs.CoalescedPost != 0 {
		t.Fatalf("%d post reads joined a flight", fs.CoalescedPost)
	}
	release()
	await(t, x, "request X")
}

// TestShareMutationNeverJoins: a mutation reads live even when a clean,
// current flight for the same key is open.
func TestShareMutationNeverJoins(t *testing.T) {
	p := newGateProvider("project.volumes", "tokX")
	m := newPolicyMonitor(t, Config{Provider: p, Forward: &gateForwarder{}})
	release := sync.OnceFunc(func() { close(p.release) })
	defer release()

	x := serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokX")
	await(t, p.entered, "request X's read to block")
	await(t, serveAsync(m, http.MethodDelete, "/projects/p1/volumes/v2", "tokM"),
		"the mutation (it joined X's flight)")
	if n := p.reads("tokM pre project.volumes"); n != 1 {
		t.Fatalf("mutation issued %d pre reads of project.volumes, want 1", n)
	}
	if fs := m.FetchStats(); fs.Coalesced != 0 {
		t.Fatalf("%d reads joined a flight", fs.Coalesced)
	}
	release()
	await(t, x, "request X")
}

// TestShareDeferredPostReadsAlone: under PostAsync a post check runs
// after its response returned, beside the same client's next request. B
// follows A serially; A's deferred post read of project.volumes blocks,
// and B's pre-state read of the same key must not wait on it. One
// client's requests never share a read.
func TestShareDeferredPostReadsAlone(t *testing.T) {
	p := newGateProvider("project.volumes", "tokA")
	p.phase = PhasePost
	m := newAsyncMonitor(t, Config{Provider: p, Forward: &gateForwarder{}})
	release := sync.OnceFunc(func() { close(p.release) })
	defer release()

	if rec := await(t, serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokA"), "request A"); rec.Code != 200 {
		t.Fatalf("request A: status %d, want 200", rec.Code)
	}
	await(t, p.entered, "A's deferred post read to block")
	if rec := await(t, serveAsync(m, http.MethodGet, "/projects/p1/volumes/v1", "tokB"),
		"request B (its pre read joined A's deferred post read)"); rec.Code != 200 {
		t.Fatalf("request B: status %d, want 200", rec.Code)
	}
	release()
	m.DrainPost()
	if fs := m.FetchStats(); fs.Coalesced != 0 {
		t.Fatalf("%d reads shared in a serial run", fs.Coalesced)
	}
}

// versionedCloud is a fake cloud whose state carries a version: every
// forwarded mutation advances it, and every read reports the version it
// observed in project.id, project.volumes, quota_sets.volume and
// user.id.groups. The writer's token differs from the readers', so the
// readers' user.id.groups flights are never displaced by the writer's
// own reads and stay open across its writes.
type versionedCloud struct {
	version atomic.Int64
}

func (c *versionedCloud) ReadKey(ctx *RequestContext, path string) string {
	return projectReadKey(ctx, path)
}

func (c *versionedCloud) Snapshot(_ *RequestContext, paths []string) (ocl.MapEnv, error) {
	n := c.version.Load()
	// Yield so concurrent requests overlap the read and find it in flight.
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	ver := "#" + strconv.FormatInt(n, 10)
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		switch path {
		case "project.id":
			out[path] = ocl.StringVal("p1" + ver)
		case "project.volumes":
			out[path] = ocl.CollectionVal(ocl.StringVal("v1"), ocl.StringVal("v2"+ver))
		case "quota_sets.volume":
			out[path] = ocl.IntVal(1000 + int(n))
		case "user.id.groups":
			// Guards compare roles by membership: "admin" still holds.
			out[path] = ocl.StringsVal("admin", "ver"+ver)
		case "volume.status":
			out[path] = ocl.StringVal("available")
		}
	}
	return out, nil
}

func (c *versionedCloud) Forward(r *http.Request, _ *Route, _ map[string]string) (*BackendResponse, error) {
	if mutates(r.Method) {
		c.version.Add(1)
	}
	return &BackendResponse{StatusCode: 200, Header: http.Header{}, Body: []byte("{}")}, nil
}

// observedVersion extracts the version a pre-state value carries.
func observedVersion(path string, v ocl.Value) (int64, bool) {
	switch path {
	case "quota_sets.volume":
		return int64(v.Int - 1000), true
	case "project.id":
		_, ver, ok := strings.Cut(v.Str, "#")
		n, err := strconv.ParseInt(ver, 10, 64)
		return n, ok && err == nil
	case "project.volumes", "user.id.groups":
		for _, e := range v.Elems {
			if _, ver, ok := strings.Cut(e.Str, "#"); ok {
				n, err := strconv.ParseInt(ver, 10, 64)
				return n, err == nil
			}
		}
	}
	return 0, false
}

// TestShareLinearizableVersions drives 16 reading clients and one writer
// at one project of a versioned cloud. Every pre-state value a request
// used must carry a version at least the number of writes that had
// completed before the request arrived: a shared read is only ever one
// the request could have made itself.
func TestShareLinearizableVersions(t *testing.T) {
	cloud := &versionedCloud{}
	m := newPolicyMonitor(t, Config{Provider: cloud, Forward: cloud})
	const clients, perClient = 16, 150
	var completed atomic.Int64
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodDelete, "/projects/p1/volumes/v2", nil)
			req.Header.Set("X-Auth-Token", "tokW")
			m.ServeHTTP(httptest.NewRecorder(), req)
			completed.Add(1)
		}
	}()
	var wg sync.WaitGroup
	var checked atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				floor := completed.Load()
				req := httptest.NewRequest(http.MethodGet, "/projects/p1/volumes/v1", nil)
				req.Header.Set("X-Auth-Token", "tok")
				cr, params, ok := m.match(req)
				if !ok {
					t.Error("GET did not match a route")
					return
				}
				var trace obs.Trace
				v, _, _ := m.check(req, cr, params, &trace)
				for path, val := range v.PreSnapshot {
					ver, ok := observedVersion(path, val)
					if !ok {
						continue
					}
					checked.Add(1)
					if ver < floor {
						t.Errorf("%s observed version %d, but %d writes had completed before the request", path, ver, floor)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if checked.Load() == 0 {
		t.Fatal("no versioned pre-state value checked")
	}
	fs := m.FetchStats()
	t.Logf("%d writes, %d versioned values checked, %d pre and %d post reads shared",
		completed.Load(), checked.Load(), fs.Coalesced-fs.CoalescedPost, fs.CoalescedPost)
}

// TestReaderPoolFlat: after warm-up, serial waves reuse parked readers —
// neither the reader count nor the process's goroutine count grows.
func TestReaderPoolFlat(t *testing.T) {
	m := newMonitor(t, Enforce, &fakeProvider{pre: env(1, 10, "available", "admin"), post: env(1, 10, "available", "admin")}, &fakeForwarder{status: 200})
	for i := 0; i < 20; i++ {
		doGet(t, m)
	}
	readers0, g0 := readersTotal.Load(), runtime.NumGoroutine()
	if readers0 == 0 {
		t.Fatal("warm-up started no reader")
	}
	for i := 0; i < 1000; i++ {
		doGet(t, m)
	}
	if readers, g := readersTotal.Load(), runtime.NumGoroutine(); readers != readers0 || g > g0 {
		t.Fatalf("after 1000 serial waves: %d readers (was %d), %d goroutines (was %d)", readers, readers0, g, g0)
	}
}

// TestReaderPoolReleasesMonitor: parked readers hold no task, so a
// dropped Monitor is collected while they park.
func TestReaderPoolReleasesMonitor(t *testing.T) {
	finalized := make(chan struct{})
	func() {
		m := newMonitor(t, Enforce, &fakeProvider{pre: env(1, 10, "available", "admin"), post: env(1, 10, "available", "admin")}, &fakeForwarder{status: 200})
		for i := 0; i < 10; i++ {
			doGet(t, m)
		}
		runtime.SetFinalizer(m, func(*Monitor) { close(finalized) })
	}()
	if readersTotal.Load() == 0 {
		t.Fatal("no reader started")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("Monitor not finalized with %d readers parked", readersTotal.Load())
}
