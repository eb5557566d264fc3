package monitor

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// countingProvider serves a fixed env and counts the paths it was asked
// to resolve, per snapshot phase.
type countingProvider struct {
	mu        sync.Mutex
	env       ocl.MapEnv
	pre, post int
}

func (p *countingProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	p.mu.Lock()
	if ctx.Phase == PhasePre {
		p.pre += len(paths)
	} else {
		p.post += len(paths)
	}
	p.mu.Unlock()
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// stats returns the pre- and post-state paths resolved so far.
func (p *countingProvider) stats() (pre, post int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pre, p.post
}

// okForwarder is a stateless (and therefore race-free) backend stub for
// concurrent tests; fakeForwarder counts calls without locking.
type okForwarder struct{}

func (okForwarder) Forward(*http.Request, *Route, map[string]string) (*BackendResponse, error) {
	return &BackendResponse{StatusCode: 200, Header: http.Header{}, Body: []byte("{}")}, nil
}

func newCachedMonitor(t *testing.T, ttl time.Duration, p StateProvider, f Forwarder) *Monitor {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Contracts: set,
		Routes: []Route{
			{Trigger: uml.Trigger{Method: uml.GET, Resource: "volume"},
				Pattern: "/projects/{project_id}/volumes/{volume_id}",
				Backend: "/v/{project_id}/{volume_id}"},
			{Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
				Pattern: "/projects/{project_id}/volumes/{volume_id}",
				Backend: "/v/{project_id}/{volume_id}"},
		},
		Provider:         p,
		Forward:          f,
		Mode:             Enforce,
		PreStateCacheTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func doReq(m *Monitor, method, path, token string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", token)
	w := httptest.NewRecorder()
	m.ServeHTTP(w, req)
	return w
}

// TestPreStateCacheHit: a second identical GET within the TTL resolves its
// pre-state entirely from the cache, one hit per path the first request
// read. Post-state reads always go to the provider.
func TestPreStateCacheHit(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	pre1, post1 := p.stats()
	if pre1 == 0 || post1 == 0 {
		t.Fatalf("first request read %d pre and %d post paths, want both > 0", pre1, post1)
	}
	if cs := m.CacheStats(); cs.Hits != 0 || cs.Misses != uint64(pre1) {
		t.Fatalf("first request cache stats %+v, want 0 hits and %d misses", cs, pre1)
	}

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	pre2, post2 := p.stats()
	if pre2 != pre1 {
		t.Errorf("second request read %d pre paths from the provider, want 0", pre2-pre1)
	}
	if post2-post1 != post1 {
		t.Errorf("second request read %d post paths, want %d (post never cached)", post2-post1, post1)
	}
	if cs := m.CacheStats(); cs.Hits != uint64(pre1) {
		t.Errorf("cache hits = %d, want %d (one per pre path)", cs.Hits, pre1)
	}
	log := m.Log()
	if got := log[1].FetchedPaths; got != post1 {
		t.Errorf("second verdict FetchedPaths = %d, want %d (post reads only)", got, post1)
	}
	for _, v := range log {
		if v.Outcome != OK {
			t.Errorf("outcome %s with cache enabled, want ok", v.Outcome)
		}
	}
}

// TestPreStateCacheDistinctTokens: the cache is keyed by token — another
// requester never sees a cached user.id.groups.
func TestPreStateCacheDistinctTokens(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	preA, _ := p.stats()
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-b")
	preB, _ := p.stats()
	if preB-preA != preA {
		t.Errorf("second token read %d pre paths, want %d (no cross-token reuse)", preB-preA, preA)
	}
}

// TestPreStateCacheInvalidatedByWrite: a forwarded write drops the
// project's cached pre-state, so the next read re-fetches.
func TestPreStateCacheInvalidatedByWrite(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "admin")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a") // fills cache
	perRead, _ := p.stats()
	doReq(m, http.MethodDelete, "/projects/p1/volumes/v1", "tok-a")
	if v := m.Log()[1]; !v.Forwarded {
		t.Fatalf("DELETE not forwarded (verdict %s); the test needs a write", v.Outcome)
	}
	before, _ := p.stats()
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	after, _ := p.stats()
	if after-before != perRead {
		t.Errorf("read after write fetched %d pre paths, want %d (cache must be invalidated)",
			after-before, perRead)
	}
}

// TestPreStateCacheTTLExpiry: entries die after the TTL even without a
// write through the monitor (covers out-of-band cloud mutations).
func TestPreStateCacheTTLExpiry(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	now := time.Now()
	m.cache.now = func() time.Time { return now }
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	pre1, _ := p.stats()

	now = now.Add(30 * time.Second)
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	if pre2, _ := p.stats(); pre2 != pre1 {
		t.Fatalf("fresh entries not served: read %d pre paths within the TTL", pre2-pre1)
	}

	now = now.Add(2 * time.Minute)
	doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	if pre3, _ := p.stats(); pre3-pre1 != pre1 {
		t.Errorf("expired entries served: read %d pre paths, want %d", pre3-pre1, pre1)
	}
}

// TestPreStateCacheAbsentPaths: paths the provider omits from the env stay
// absent on cache hits (the fake mirrors providers that return partial
// envs; missing keys must not become zero Values).
func TestPreStateCacheAbsentPaths(t *testing.T) {
	partial := env(1, 10, "available", "member")
	delete(partial, "volume.status")
	p := &countingProvider{env: partial}
	m := newCachedMonitor(t, time.Minute, p, &fakeForwarder{status: 200})

	w1 := doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	pre1, _ := p.stats()
	w2 := doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok-a")
	if pre2, _ := p.stats(); pre2 != pre1 {
		t.Fatalf("second request read %d pre paths, want 0 (absent paths are cached too)", pre2-pre1)
	}
	if w1.Code != w2.Code {
		t.Errorf("cached verdict diverged: first %d, second %d", w1.Code, w2.Code)
	}
	log := m.Log()
	if len(log) != 2 {
		t.Fatalf("got %d verdicts", len(log))
	}
	if _, ok := log[0].PreSnapshot["volume.status"]; ok {
		t.Error("absent path materialised in the live snapshot")
	}
	if _, ok := log[1].PreSnapshot["volume.status"]; ok {
		t.Error("absent path materialised in cached snapshot")
	}
	if log[0].Outcome != log[1].Outcome {
		t.Errorf("outcome changed on cache hit: %s then %s", log[0].Outcome, log[1].Outcome)
	}
}

// TestShardedCountersAggregate drives concurrent requests and checks that
// the sharded outcome/coverage counters and the merged log agree.
func TestShardedCountersAggregate(t *testing.T) {
	p := &countingProvider{env: env(1, 10, "available", "member")}
	m := newCachedMonitor(t, 0, p, okForwarder{})

	const goroutines, per = 16, 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				doReq(m, http.MethodGet, "/projects/p1/volumes/v1", "tok")
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, n := range m.Outcomes() {
		total += n
	}
	if total != goroutines*per {
		t.Errorf("outcome counters sum to %d, want %d", total, goroutines*per)
	}
	log := m.Log()
	if len(log) != goroutines*per {
		t.Errorf("log holds %d verdicts, want %d", len(log), goroutines*per)
	}
	// Log must be ordered by arrival sequence.
	for i := 1; i < len(log); i++ {
		if log[i-1].seq >= log[i].seq {
			t.Fatalf("log out of order at %d: %d then %d", i, log[i-1].seq, log[i].seq)
		}
	}
}
