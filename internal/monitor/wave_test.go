package monitor

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
)

// The wave tests pin the failure semantics of reading a clause's
// pre-state in one concurrent wave: a member's failure reaches the
// verdict only when evaluation asks for that path, and then under the
// same fail policy as a sequential read would.

// waveArms are the fact-pruning configurations every wave test runs:
// compile-time facts off and on.
var waveArms = []struct {
	noFacts bool
}{
	{true}, {false},
}

func waveArmName(noFacts bool) string {
	return fmt.Sprintf("facts=%v", !noFacts)
}

// buildWaveMonitor builds a Cinder monitor on diffRoutes for one arm and
// policy. Degrade gets the read cache it requires.
func buildWaveMonitor(t *testing.T, noFacts bool, policy FailPolicy, prov StateProvider) *Monitor {
	t.Helper()
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Contracts:  set,
		Routes:     diffRoutes(),
		Provider:   prov,
		Forward:    &fakeForwarder{status: 204},
		Mode:       Enforce,
		NoFacts:    noFacts,
		FailPolicy: policy,
	}
	if policy == Degrade {
		cfg.PreStateCacheTTL = 20 * time.Millisecond
		cfg.DegradeTTL = 10 * time.Second
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sendWave(t *testing.T, m *Monitor, method string) (Verdict, int) {
	t.Helper()
	req := httptest.NewRequest(method, "/projects/p1/volumes/v1", nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return lastVerdict(t, m), rec.Code
}

// pathFailProvider serves env and fails pre-state reads of one path,
// counting reads per path.
type pathFailProvider struct {
	env  ocl.MapEnv
	fail string

	mu    sync.Mutex
	reads map[string]int
}

func (p *pathFailProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	p.mu.Lock()
	if p.reads == nil {
		p.reads = make(map[string]int)
	}
	for _, path := range paths {
		p.reads[path]++
	}
	p.mu.Unlock()
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if ctx.Phase == PhasePre && path == p.fail {
			return nil, errFake
		}
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

func (p *pathFailProvider) readsOf(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads[path]
}

// TestFetchWaveUnaskedFailureKeepsVerdict: a DELETE on a project the
// cloud does not know (project.id absent) is decided false by every
// disjunct's first conjunct, so evaluation never asks for user.id.groups.
// The wave still reads it alongside project.id, and that read fails; the
// failure must stay parked and the verdict stay Blocked — not Error, not
// Unverified — under every fail policy.
func TestFetchWaveUnaskedFailureKeepsVerdict(t *testing.T) {
	pre := env(2, 10, "available", "admin")
	delete(pre, "project.id")
	for _, policy := range []FailPolicy{FailClosed, FailOpen, Degrade} {
		for _, arm := range waveArms {
			name := policy.String() + "/" + waveArmName(arm.noFacts)
			prov := &pathFailProvider{env: pre, fail: "user.id.groups"}
			m := buildWaveMonitor(t, arm.noFacts, policy, prov)
			v, code := sendWave(t, m, http.MethodDelete)
			if v.Outcome != Blocked || code != http.StatusPreconditionFailed || v.Forwarded {
				t.Errorf("%s: verdict %s (%s) code %d forwarded=%v, want blocked 412 not forwarded",
					name, v.Outcome, v.Detail, code, v.Forwarded)
			}
			if n := prov.readsOf("user.id.groups"); n != 1 {
				t.Errorf("%s: user.id.groups read %d times, want 1 (by the wave)", name, n)
			}
			if v.FetchedPaths != 5 || v.FetchRounds != 1 {
				t.Errorf("%s: fetched %d paths in %d rounds, want 5 in 1 wave", name, v.FetchedPaths, v.FetchRounds)
			}
			if v.DegradedPre {
				t.Errorf("%s: verdict marked degraded by a failure it never used", name)
			}
		}
	}
}

// TestFetchWaveFailPolicies pins the outcomes of the fault shapes
// TestDifferentialFailPolicies compares across engines: a pre-phase
// outage from the first request, a post-phase outage, and an outage after
// a warm read under Degrade.
func TestFetchWaveFailPolicies(t *testing.T) {
	good := env(2, 10, "available", "admin")
	type want struct {
		outcome   Outcome
		code      int
		forwarded bool
		rounds    int
	}
	cases := []struct {
		policy              FailPolicy
		preFault, postFault want
		degradeWarm         bool
	}{
		{FailClosed,
			want{Error, http.StatusBadGateway, false, 1},
			want{Error, http.StatusBadGateway, true, 2}, false},
		{FailOpen,
			want{Unverified, http.StatusNoContent, true, 1},
			want{Unverified, http.StatusNoContent, true, 2}, false},
		{Degrade,
			want{Error, http.StatusBadGateway, false, 1},
			want{Unverified, http.StatusNoContent, true, 2}, true},
	}
	check := func(name string, v Verdict, code int, w want) {
		t.Helper()
		if v.Outcome != w.outcome || code != w.code || v.Forwarded != w.forwarded {
			t.Errorf("%s: verdict %s (%s) code %d forwarded=%v, want %s %d forwarded=%v",
				name, v.Outcome, v.Detail, code, v.Forwarded, w.outcome, w.code, w.forwarded)
		}
		if v.FetchRounds != w.rounds {
			t.Errorf("%s: %d provider rounds, want %d", name, v.FetchRounds, w.rounds)
		}
	}
	for _, tc := range cases {
		for _, arm := range waveArms {
			name := tc.policy.String() + "/" + waveArmName(arm.noFacts)

			down := &switchProvider{env: good}
			down.fail.Store(true)
			v, code := sendWave(t, buildWaveMonitor(t, arm.noFacts, tc.policy, down), http.MethodDelete)
			check(name+"/pre-fault", v, code, tc.preFault)

			v, code = sendWave(t, buildWaveMonitor(t, arm.noFacts, tc.policy, &prePostProvider{pre: good}), http.MethodDelete)
			check(name+"/post-fault", v, code, tc.postFault)

			if !tc.degradeWarm {
				continue
			}
			prov := &switchProvider{env: good}
			m := buildWaveMonitor(t, arm.noFacts, tc.policy, prov)
			if v, _ := sendWave(t, m, http.MethodGet); v.Outcome != OK {
				t.Fatalf("%s: warm request outcome %s, want ok", name, v.Outcome)
			}
			// Let the read cache lapse so the live wave really fails; the
			// degrade window is still open and serves every pre-state path,
			// and the post read (which no cache may serve) fails.
			time.Sleep(30 * time.Millisecond)
			prov.fail.Store(true)
			v, code = sendWave(t, m, http.MethodGet)
			check(name+"/degrade-warm", v, code, want{Unverified, http.StatusNoContent, true, 2})
			if !v.DegradedPre {
				t.Errorf("%s/degrade-warm: verdict not marked degraded", name)
			}
		}
	}
}

// flakyProvider fails the first read of one path and serves env
// otherwise.
type flakyProvider struct {
	env  ocl.MapEnv
	fail string

	mu    sync.Mutex
	reads map[string]int
}

func (p *flakyProvider) Snapshot(_ *RequestContext, paths []string) (ocl.MapEnv, error) {
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		p.mu.Lock()
		if p.reads == nil {
			p.reads = make(map[string]int)
		}
		p.reads[path]++
		first := p.reads[path] == 1
		p.mu.Unlock()
		if path == p.fail && first {
			return nil, errFake
		}
		if v, ok := p.env[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// TestFetchWaveParkedErrorUsedOnce drives the fetcher directly: a wave
// member's failure is handed to the first demand for its path without a
// new read, and the next demand — the witness fallback's re-evaluation —
// reads the path again.
func TestFetchWaveParkedErrorUsedOnce(t *testing.T) {
	prov := &flakyProvider{env: env(2, 10, "available", "admin"), fail: "user.id.groups"}
	m := buildWaveMonitor(t, true, FailClosed, prov)
	f := &lazyFetcher{m: m, reqCtx: &RequestContext{Phase: PhasePre, Token: "tok"}, project: "p1"}
	pre := newLazyEnv()
	f.wave = []string{"project.id", "user.id.groups", "quota_sets.volume"}

	if err := f.fetchPre(pre, "project.id"); err != nil {
		t.Fatalf("demand project.id: %v", err)
	}
	if !pre.fetched("quota_sets.volume") || pre.fetched("user.id.groups") {
		t.Fatalf("after the wave: quota fetched=%v groups fetched=%v, want true/false",
			pre.fetched("quota_sets.volume"), pre.fetched("user.id.groups"))
	}
	if f.fetched != 3 || f.rounds != 1 {
		t.Fatalf("wave fetched %d paths in %d rounds, want 3 in 1", f.fetched, f.rounds)
	}
	if err := f.fetchPre(pre, "user.id.groups"); err != errFake {
		t.Fatalf("first demand of the failed path: err %v, want the wave's failure", err)
	}
	if f.fetched != 3 {
		t.Fatalf("handing out a parked failure read the cloud again (%d fetches)", f.fetched)
	}
	if err := f.fetchPre(pre, "user.id.groups"); err != nil {
		t.Fatalf("second demand of the failed path: %v, want a fresh successful read", err)
	}
	if !pre.fetched("user.id.groups") || f.fetched != 4 || f.rounds != 2 {
		t.Fatalf("after the re-read: fetched=%v, %d fetches in %d rounds, want true, 4 in 2",
			pre.fetched("user.id.groups"), f.fetched, f.rounds)
	}
}

// barrierProvider holds every pre-state read until width reads are in
// flight at once (or a timeout passes), recording the widest overlap: a
// wave that read its members one after another would never fill it.
type barrierProvider struct {
	pre, post ocl.MapEnv
	width     int

	mu       sync.Mutex
	inflight int
	widest   int
	full     chan struct{}
}

func (p *barrierProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	if ctx.Phase == PhasePre {
		p.mu.Lock()
		p.inflight++
		if p.inflight > p.widest {
			p.widest = p.inflight
		}
		if p.inflight == p.width {
			close(p.full)
		}
		p.mu.Unlock()
		select {
		case <-p.full:
		case <-time.After(2 * time.Second):
		}
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
	}
	src := p.pre
	if ctx.Phase == PhasePost {
		src = p.post
	}
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		if v, ok := src[path]; ok {
			out[path] = v
		}
	}
	return out, nil
}

// TestFetchWaveReadsClauseConcurrently checks the wave really overlaps
// its reads: a clean DELETE's five pre-state paths are all in flight at
// once, and the check still reaches the same OK verdict.
func TestFetchWaveReadsClauseConcurrently(t *testing.T) {
	for _, arm := range waveArms {
		name := waveArmName(arm.noFacts)
		prov := &barrierProvider{
			pre:   env(2, 10, "available", "admin"),
			post:  env(1, 10, "available", "admin"),
			width: 5,
			full:  make(chan struct{}),
		}
		m := buildWaveMonitor(t, arm.noFacts, FailClosed, prov)
		start := time.Now()
		if v, code := sendWave(t, m, http.MethodDelete); v.Outcome != OK || code != http.StatusNoContent {
			t.Fatalf("%s: verdict %s (%s) code %d, want ok 204", name, v.Outcome, v.Detail, code)
		}
		prov.mu.Lock()
		widest := prov.widest
		prov.mu.Unlock()
		if widest != 5 {
			t.Errorf("%s: at most %d pre-state reads overlapped, want all 5 (took %v)", name, widest, time.Since(start))
		}
	}
}
