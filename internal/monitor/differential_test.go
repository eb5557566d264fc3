package monitor

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// The differential suite proves the engines' safety claim: the compiled
// closure-chain engine, the lazy tree-walking plan engine — each with and
// without compile-time fact pruning — and the eager whole-snapshot engine
// produce bit-identical verdicts: same outcome, pre/post truth, failing
// clause and SecReq attribution on every request. Only the fetch economy
// may differ between eager and the plan engines; between lazy and
// compiled even the economy counters (fetches, reuses, clause demands,
// fact skips) must agree exactly, because the compiled engine swaps only
// the per-node evaluator inside the shared demand-driven workflow. Each
// sweep runs five arms (eager; lazy and compiled, facts off and on) and
// compares every plan arm against eager, then lazy against compiled.

// diffRoutes mirrors newMonitor's route table.
func diffRoutes() []Route {
	return []Route{
		{Trigger: uml.Trigger{Method: uml.GET, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
		{Trigger: uml.Trigger{Method: uml.PUT, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
		{Trigger: uml.Trigger{Method: uml.POST, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes",
			Backend: "/volume/v3/{project_id}/volumes"},
		{Trigger: uml.Trigger{Method: uml.DELETE, Resource: "volume"},
			Pattern: "/projects/{project_id}/volumes/{volume_id}",
			Backend: "/volume/v3/{project_id}/volumes/{volume_id}"},
	}
}

// runEngine drives one request through a freshly built monitor in the given
// eval mode and returns its verdict and response code.
func runEngine(t *testing.T, set *contract.Set, eval EvalMode, noReuse, noFacts bool, mode Mode,
	method, path string, pre, post ocl.MapEnv, status int) (Verdict, int) {
	t.Helper()
	m, err := New(Config{
		Contracts:   set,
		Routes:      diffRoutes(),
		Provider:    &fakeProvider{pre: pre, post: post},
		Forward:     &fakeForwarder{status: status},
		Mode:        mode,
		Eval:        eval,
		NoPostReuse: noReuse,
		NoFacts:     noFacts,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return lastVerdict(t, m), rec.Code
}

// runEngineAsync drives one request through a compiled monitor deferring
// post verification to the async pipeline, drains it, and returns the late
// verdict and the response code the client saw. Against the fixed fake
// states the drained verdict must be indistinguishable from the
// synchronous arms — same outcome, failing clause and fetch economy — the
// sixth differential arm.
func runEngineAsync(t *testing.T, set *contract.Set, noFacts bool, mode Mode,
	method, path string, pre, post ocl.MapEnv, status int) (Verdict, int) {
	t.Helper()
	m, err := New(Config{
		Contracts:   set,
		Routes:      diffRoutes(),
		Provider:    &fakeProvider{pre: pre, post: post},
		Forward:     &fakeForwarder{status: status},
		Mode:        mode,
		Eval:        EvalCompiled,
		NoPostReuse: true,
		NoFacts:     noFacts,
		Post:        PostAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", "tok")
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	m.DrainPost()
	return lastVerdict(t, m), rec.Code
}

// diffCompare asserts the equivalence contract between a reference verdict
// (the eager arm) and a plan-engine verdict. Detail is compared except on
// Error outcomes: plan order may surface a different (equally real)
// evaluation error than the monolithic formula does.
func diffCompare(t *testing.T, name string, ref, got Verdict, refCode, gotCode int) {
	t.Helper()
	fail := func(field string, e, l interface{}) {
		t.Errorf("%s: %s diverged: ref %v, got %v", name, field, e, l)
	}
	if ref.Outcome != got.Outcome {
		fail("outcome", fmt.Sprintf("%s (%s)", ref.Outcome, ref.Detail),
			fmt.Sprintf("%s (%s)", got.Outcome, got.Detail))
		return
	}
	if refCode != gotCode {
		fail("status", refCode, gotCode)
	}
	if ref.PreOK != got.PreOK {
		fail("PreOK", ref.PreOK, got.PreOK)
	}
	if ref.PostOK != got.PostOK {
		fail("PostOK", ref.PostOK, got.PostOK)
	}
	if ref.Forwarded != got.Forwarded {
		fail("Forwarded", ref.Forwarded, got.Forwarded)
	}
	if !reflect.DeepEqual(ref.MatchedSecReqs, got.MatchedSecReqs) {
		fail("MatchedSecReqs", ref.MatchedSecReqs, got.MatchedSecReqs)
	}
	if !reflect.DeepEqual(ref.MatchedTransitions, got.MatchedTransitions) {
		fail("MatchedTransitions", ref.MatchedTransitions, got.MatchedTransitions)
	}
	if ref.FailingClause != got.FailingClause {
		fail("FailingClause", ref.FailingClause, got.FailingClause)
	}
	if ref.Outcome != Error && ref.Detail != got.Detail {
		fail("Detail", ref.Detail, got.Detail)
	}
	if got.FetchedPaths > ref.FetchedPaths {
		fail("FetchedPaths (plan engine must not fetch more)", ref.FetchedPaths, got.FetchedPaths)
	}
}

// diffEconomy asserts exact economy-counter agreement between the lazy and
// compiled arms of one configuration. The compiled engine reuses the lazy
// workflow (fetch cache, flights, facts pruning, effect-frame reuse) and
// swaps only per-node evaluation, so fetches, reuses, per-clause demands
// and fact skips must match to the unit — any drift means the closure
// chains demand state the tree walk does not, or vice versa.
func diffEconomy(t *testing.T, name string, lazy, comp Verdict) {
	t.Helper()
	if lazy.FetchedPaths != comp.FetchedPaths {
		t.Errorf("%s: FetchedPaths diverged: lazy %d, compiled %d", name, lazy.FetchedPaths, comp.FetchedPaths)
	}
	if lazy.ReusedPaths != comp.ReusedPaths {
		t.Errorf("%s: ReusedPaths diverged: lazy %d, compiled %d", name, lazy.ReusedPaths, comp.ReusedPaths)
	}
	if lazy.DemandedPaths != comp.DemandedPaths {
		t.Errorf("%s: DemandedPaths diverged: lazy %d, compiled %d", name, lazy.DemandedPaths, comp.DemandedPaths)
	}
	if lazy.FactsSkipped != comp.FactsSkipped {
		t.Errorf("%s: FactsSkipped diverged: lazy %d, compiled %d", name, lazy.FactsSkipped, comp.FactsSkipped)
	}
}

type diffRequest struct {
	method, path string
}

func diffRequests() []diffRequest {
	return []diffRequest{
		{http.MethodGet, "/projects/p1/volumes/v1"},
		{http.MethodPut, "/projects/p1/volumes/v1"},
		{http.MethodPost, "/projects/p1/volumes"},
		{http.MethodDelete, "/projects/p1/volumes/v1"},
	}
}

// TestDifferentialExampleStates sweeps hand-picked states covering every
// outcome class: pre pass/fail, post pass/fail, backend accept/reject, in
// both modes — eager vs lazy with post-state reuse disabled (the
// unconditionally equivalent configuration).
func TestDifferentialExampleStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		name      string
		pre, post ocl.MapEnv
		status    int
	}
	states := []state{
		{"ok-delete", env(2, 10, "available", "admin"), env(1, 10, "available", "admin"), 204},
		{"post-violation", env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 204},
		{"pre-fail-role", env(2, 10, "available", "intruder"), env(1, 10, "available", "intruder"), 204},
		{"pre-fail-in-use", env(2, 10, "in-use", "admin"), env(1, 10, "in-use", "admin"), 204},
		{"backend-rejects", env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 403},
		{"backend-errors", env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 500},
		{"quota-edge", env(10, 10, "available", "admin"), env(9, 10, "available", "admin"), 204},
		{"empty-project", env(0, 10, "available", "admin"), env(0, 10, "available", "admin"), 204},
	}
	// Undefined inputs: missing paths resolve to Undefined in both engines.
	partial := env(2, 10, "available", "admin")
	delete(partial, "volume.status")
	states = append(states, state{"absent-status", partial, env(1, 10, "available", "admin"), 204})
	// Ill-typed state: quota as a string exercises evaluation errors.
	illTyped := env(2, 10, "available", "admin")
	illTyped["quota_sets.volume"] = ocl.StringVal("ten")
	states = append(states, state{"ill-typed-quota", illTyped, illTyped, 204})

	for _, mode := range []Mode{Enforce, Observe} {
		for _, rq := range diffRequests() {
			for _, st := range states {
				name := fmt.Sprintf("%s/%s/%s", mode, rq.method, st.name)
				ve, ce := runEngine(t, set, EvalEager, false, false, mode, rq.method, rq.path, st.pre, st.post, st.status)
				vl, cl := runEngine(t, set, EvalLazy, true, true, mode, rq.method, rq.path, st.pre, st.post, st.status)
				vf, cf := runEngine(t, set, EvalLazy, true, false, mode, rq.method, rq.path, st.pre, st.post, st.status)
				vc, cc := runEngine(t, set, EvalCompiled, true, true, mode, rq.method, rq.path, st.pre, st.post, st.status)
				vcf, ccf := runEngine(t, set, EvalCompiled, true, false, mode, rq.method, rq.path, st.pre, st.post, st.status)
				va, ca := runEngineAsync(t, set, true, mode, rq.method, rq.path, st.pre, st.post, st.status)
				diffCompare(t, name, ve, vl, ce, cl)
				diffCompare(t, name+"/facts", ve, vf, ce, cf)
				diffCompare(t, name+"/compiled", ve, vc, ce, cc)
				diffCompare(t, name+"/compiled+facts", ve, vcf, ce, ccf)
				// The async arm's one designed observable difference: a
				// verdict decided in the deferred post phase (violation or
				// evaluation error) lands after the client already has the
				// backend's answer, so the wire code is the backend's, not
				// the 409/502 the synchronous monitor substitutes.
				wantCode := ce
				if va.Late {
					wantCode = va.BackendStatus
				}
				diffCompare(t, name+"/async", ve, va, wantCode, ca)
				diffEconomy(t, name+"/economy", vl, vc)
				diffEconomy(t, name+"/economy+facts", vf, vcf)
				diffEconomy(t, name+"/economy+async", vc, va)
			}
		}
	}
}

// randomEnv draws a state; roughly half the draws are well-typed, the rest
// mix in absent paths and wrong kinds so the error paths diverge or agree
// loudly.
func randomEnv(rng *rand.Rand) ocl.MapEnv {
	roles := []string{"admin", "member", "user", "intruder", ""}
	statuses := []string{"available", "in-use", "error", ""}
	e := env(rng.Intn(4), rng.Intn(4), statuses[rng.Intn(len(statuses))], roles[rng.Intn(len(roles))])
	if rng.Intn(4) == 0 {
		keys := []string{"project.id", "project.volumes", "quota_sets.volume", "volume.status", "user.id.groups"}
		delete(e, keys[rng.Intn(len(keys))])
	}
	if rng.Intn(6) == 0 {
		e["quota_sets.volume"] = ocl.StringVal("zz")
	}
	return e
}

// TestDifferentialFuzzStates drives both engines over seeded random pre and
// post states and demands verdict equivalence (reuse off: post states are
// unconstrained, so the frame assumption does not hold).
func TestDifferentialFuzzStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reqs := diffRequests()
	statuses := []int{200, 204, 403, 500}
	for i := 0; i < 300; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		pre, post := randomEnv(rng), randomEnv(rng)
		status := statuses[rng.Intn(len(statuses))]
		mode := Enforce
		if rng.Intn(2) == 0 {
			mode = Observe
		}
		name := fmt.Sprintf("fuzz-%d/%s/%s", i, mode, rq.method)
		ve, ce := runEngine(t, set, EvalEager, false, false, mode, rq.method, rq.path, pre, post, status)
		vl, cl := runEngine(t, set, EvalLazy, true, true, mode, rq.method, rq.path, pre, post, status)
		vf, cf := runEngine(t, set, EvalLazy, true, false, mode, rq.method, rq.path, pre, post, status)
		vc, cc := runEngine(t, set, EvalCompiled, true, true, mode, rq.method, rq.path, pre, post, status)
		vcf, ccf := runEngine(t, set, EvalCompiled, true, false, mode, rq.method, rq.path, pre, post, status)
		va, ca := runEngineAsync(t, set, true, mode, rq.method, rq.path, pre, post, status)
		diffCompare(t, name, ve, vl, ce, cl)
		diffCompare(t, name+"/facts", ve, vf, ce, cf)
		diffCompare(t, name+"/compiled", ve, vc, ce, cc)
		diffCompare(t, name+"/compiled+facts", ve, vcf, ce, ccf)
		wantCode := ce
		if va.Late {
			wantCode = va.BackendStatus
		}
		diffCompare(t, name+"/async", ve, va, wantCode, ca)
		diffEconomy(t, name+"/economy", vl, vc)
		diffEconomy(t, name+"/economy+facts", vf, vcf)
		diffEconomy(t, name+"/economy+async", vc, va)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v status=%d", i, pre, post, status)
		}
	}
}

// TestDifferentialPostReuseOnFrameRespectingStates checks the default lazy
// configuration (effect-frame reuse ON) against eager, on post states that
// honor the frame: only paths inside the active transitions' effect frame
// change across the call. This is the soundness condition the reuse
// optimization rests on — the cloud moved only what the model says the
// transition touches.
func TestDifferentialPostReuseOnFrameRespectingStates(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	reqs := diffRequests()
	for i := 0; i < 200; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		pre := randomEnv(rng)
		// The paper model's every effect frame is {project.volumes}: a
		// frame-respecting post state mutates only the volume set.
		post := make(ocl.MapEnv, len(pre))
		for k, v := range pre {
			post[k] = v
		}
		elems := make([]ocl.Value, rng.Intn(4))
		for j := range elems {
			elems[j] = ocl.StringVal("v")
		}
		post["project.volumes"] = ocl.CollectionVal(elems...)
		name := fmt.Sprintf("reuse-%d/%s", i, rq.method)
		ve, ce := runEngine(t, set, EvalEager, false, false, Enforce, rq.method, rq.path, pre, post, 204)
		vl, cl := runEngine(t, set, EvalLazy, false, true, Enforce, rq.method, rq.path, pre, post, 204)
		vf, cf := runEngine(t, set, EvalLazy, false, false, Enforce, rq.method, rq.path, pre, post, 204)
		vc, cc := runEngine(t, set, EvalCompiled, false, true, Enforce, rq.method, rq.path, pre, post, 204)
		vcf, ccf := runEngine(t, set, EvalCompiled, false, false, Enforce, rq.method, rq.path, pre, post, 204)
		diffCompare(t, name, ve, vl, ce, cl)
		diffCompare(t, name+"/facts", ve, vf, ce, cf)
		diffCompare(t, name+"/compiled", ve, vc, ce, cc)
		diffCompare(t, name+"/compiled+facts", ve, vcf, ce, ccf)
		diffEconomy(t, name+"/economy", vl, vc)
		diffEconomy(t, name+"/economy+facts", vf, vcf)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v", i, pre, post)
		}
	}
}

// TestLazyFetchEconomyOnPaperModel pins the headline numbers the plan
// engines claim for the paper's Cinder model: a clean GET needs 5 cloud
// reads under the plan engines against the eager engine's 8, and a clean
// DELETE 6 against 10. The reads before the forward go out in one wave,
// so each check waits on 2 provider rounds: the pre-state wave and the
// one post-state read. Both demand-driven engines — lazy tree walk and
// compiled closure chains — must hit the same pins.
func TestLazyFetchEconomyOnPaperModel(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method, path        string
		pre, post           ocl.MapEnv
		status              int
		wantPlan, wantEager int
		wantReused          int
		// wantPreRounds are the provider rounds before the forward;
		// each plan check adds one round per post-state read, 1 here.
		wantPreRounds int
	}{
		// GET: 4 pre paths in one wave + post re-fetch of
		// project.volumes; the other 2 consequent reads reuse the
		// pre-state (project.id, quota).
		{http.MethodGet, "/projects/p1/volumes/v1",
			env(2, 10, "available", "admin"), env(2, 10, "available", "admin"), 200, 5, 8, 2, 1},
		// DELETE: 5 pre paths in one wave + 1 framed post path.
		{http.MethodDelete, "/projects/p1/volumes/v1",
			env(2, 10, "available", "admin"), env(1, 10, "available", "admin"), 204, 6, 10, 2, 1},
	}
	for _, tc := range cases {
		ve, _ := runEngine(t, set, EvalEager, false, false, Enforce, tc.method, tc.path, tc.pre, tc.post, tc.status)
		if ve.Outcome != OK {
			t.Fatalf("%s: eager outcome %s, want ok", tc.method, ve.Outcome)
		}
		if ve.FetchedPaths != tc.wantEager {
			t.Errorf("%s: eager fetched %d paths, want %d", tc.method, ve.FetchedPaths, tc.wantEager)
		}
		if ve.FetchRounds != 2 {
			t.Errorf("%s: eager waited on %d provider rounds, want 2 (one per snapshot)", tc.method, ve.FetchRounds)
		}
		for _, eval := range []EvalMode{EvalLazy, EvalCompiled} {
			vp, _ := runEngine(t, set, eval, false, false, Enforce, tc.method, tc.path, tc.pre, tc.post, tc.status)
			if vp.Outcome != OK {
				t.Fatalf("%s/%s: outcome %s, want ok", tc.method, eval, vp.Outcome)
			}
			if vp.FetchedPaths != tc.wantPlan {
				t.Errorf("%s/%s: fetched %d paths, want %d", tc.method, eval, vp.FetchedPaths, tc.wantPlan)
			}
			if vp.ReusedPaths != tc.wantReused {
				t.Errorf("%s/%s: reused %d paths, want %d", tc.method, eval, vp.ReusedPaths, tc.wantReused)
			}
			if want := tc.wantPreRounds + 1; vp.FetchRounds != want {
				t.Errorf("%s/%s: waited on %d provider rounds, want %d pre-phase + 1 post read",
					tc.method, eval, vp.FetchRounds, tc.wantPreRounds)
			}
		}
	}
}

// TestDifferentialFailPolicies checks that every snapshot-failure policy
// degrades identically under the lazy and compiled engines, with facts on
// and off: a cloud outage must yield the same outcome, attribution and
// economy regardless of how clauses are evaluated. Three fault shapes are
// driven per policy: pre-phase failure (cold), post-phase failure, and —
// for Degrade — a warmed cache followed by an outage, which must serve the
// cached pre-state in both engines.
func TestDifferentialFailPolicies(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	build := func(eval EvalMode, noFacts bool, policy FailPolicy, prov StateProvider) *Monitor {
		t.Helper()
		cfg := Config{
			Contracts:  set,
			Routes:     diffRoutes(),
			Provider:   prov,
			Forward:    &fakeForwarder{status: 204},
			Mode:       Enforce,
			Eval:       eval,
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
	sendReq := func(m *Monitor, method string) (Verdict, int) {
		t.Helper()
		req := httptest.NewRequest(method, "/projects/p1/volumes/v1", nil)
		req.Header.Set("X-Auth-Token", "tok")
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, req)
		return lastVerdict(t, m), rec.Code
	}
	send := func(m *Monitor) (Verdict, int) { return sendReq(m, http.MethodDelete) }
	good := env(2, 10, "available", "admin")
	for _, policy := range []FailPolicy{FailClosed, FailOpen, Degrade} {
		for _, noFacts := range []bool{true, false} {
			tag := fmt.Sprintf("%s/facts=%v", policy, !noFacts)

			// Pre-phase outage from the first request.
			run := func(eval EvalMode) (Verdict, int) {
				prov := &switchProvider{env: good}
				prov.fail.Store(true)
				return send(build(eval, noFacts, policy, prov))
			}
			vl, cl := run(EvalLazy)
			vc, cc := run(EvalCompiled)
			diffCompare(t, tag+"/pre-fault", vl, vc, cl, cc)
			diffEconomy(t, tag+"/pre-fault", vl, vc)
			if vl.DegradedPre != vc.DegradedPre {
				t.Errorf("%s/pre-fault: DegradedPre diverged: lazy %v, compiled %v", tag, vl.DegradedPre, vc.DegradedPre)
			}

			// Post-phase outage: the pre-check passes, the post snapshot
			// fails mid-request.
			runPost := func(eval EvalMode) (Verdict, int) {
				return send(build(eval, noFacts, policy, &prePostProvider{pre: good}))
			}
			vl, cl = runPost(EvalLazy)
			vc, cc = runPost(EvalCompiled)
			diffCompare(t, tag+"/post-fault", vl, vc, cl, cc)
			diffEconomy(t, tag+"/post-fault", vl, vc)

			if policy != Degrade {
				continue
			}
			// Warm cache, then outage: Degrade must serve the cached
			// pre-state and mark the verdict degraded in both engines.
			// GET keeps the state fixpoint-clean across both requests.
			runWarm := func(eval EvalMode) (Verdict, int) {
				prov := &switchProvider{env: good}
				m := build(eval, noFacts, policy, prov)
				if v, _ := sendReq(m, http.MethodGet); v.Outcome != OK {
					t.Fatalf("%s/%s: warm request outcome %s, want ok", tag, eval, v.Outcome)
				}
				// Let the read cache lapse so the live snapshot really
				// fails; the degrade window is still wide open.
				time.Sleep(30 * time.Millisecond)
				prov.fail.Store(true)
				return sendReq(m, http.MethodGet)
			}
			vl, cl = runWarm(EvalLazy)
			vc, cc = runWarm(EvalCompiled)
			diffCompare(t, tag+"/degrade-warm", vl, vc, cl, cc)
			diffEconomy(t, tag+"/degrade-warm", vl, vc)
			if !vl.DegradedPre || !vc.DegradedPre {
				t.Errorf("%s/degrade-warm: DegradedPre lazy=%v compiled=%v, want both true", tag, vl.DegradedPre, vc.DegradedPre)
			}
		}
	}
}
