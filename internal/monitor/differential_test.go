package monitor

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// The differential suite proves the monitor's safety claim against a
// reference: ocl.Eval over the full pre- and post-state. Every monitor
// arm — compile-time facts off and on, effect-frame reuse off, and the
// async post pipeline — must reach the reference's verdict on every
// request: same outcome, pre/post truth, failing clause and SecReq
// attribution, while fetching no more than the reference's two
// whole-contract snapshots. A demand oracle pins the evaluation work too:
// without facts, the pre phase demands exactly the paths ocl.Eval
// resolves, disjunct by disjunct.

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

// runEngine drives one request through a freshly built monitor configured
// by cfg (Contracts, Routes, Provider and Forward are filled in) and
// returns its verdict and response code. Under PostAsync the post phase
// is drained before the verdict is read.
func runEngine(t *testing.T, set *contract.Set, cfg Config,
	method, path string, pre, post ocl.MapEnv, status int) (Verdict, int) {
	t.Helper()
	cfg.Contracts = set
	cfg.Routes = diffRoutes()
	cfg.Provider = &fakeProvider{pre: pre, post: post}
	cfg.Forward = &fakeForwarder{status: status}
	m, err := New(cfg)
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

// diffContract returns the contract a diffRoutes request is checked by.
func diffContract(t *testing.T, set *contract.Set, method string) *contract.Contract {
	t.Helper()
	c, ok := set.For(uml.Trigger{Method: uml.HTTPMethod(method), Resource: "volume"})
	if !ok {
		t.Fatalf("no contract for %s volume", method)
	}
	return c
}

// oracleVerdict is the reference verdict: the paper's workflow with
// ocl.Eval over the full pre- and post-state the fake provider serves.
// It decides each disjunct in model order, attributes the matched cases,
// and maps the outcome to the status code the monitor answers with.
// FetchedPaths is what two whole-contract snapshots read.
func oracleVerdict(c *contract.Contract, mode Mode, pre, post ocl.MapEnv, status int) (Verdict, int) {
	v := Verdict{Trigger: c.Trigger}
	paths := len(c.StatePaths())
	done := func(o Outcome, detail string, code int) (Verdict, int) {
		v.Outcome, v.Detail = o, detail
		switch o {
		case Blocked, Rejected, ViolationForbiddenAccepted, ViolationAllowedRejected:
			v.FailingClause = c.Pre.String()
		case ViolationPostcondition:
			v.FailingClause = c.Post.String()
		}
		return v, code
	}
	v.FetchedPaths = paths
	seen := make(map[string]bool)
	for _, cs := range c.Cases {
		ok, err := ocl.EvalBool(cs.Pre, ocl.Context{Cur: pre})
		if err != nil {
			return done(Error, err.Error(), http.StatusBadGateway)
		}
		if !ok {
			continue
		}
		v.PreOK = true
		v.MatchedTransitions = append(v.MatchedTransitions,
			cs.Transition.From+"->"+cs.Transition.To+" on "+cs.Transition.Trigger.String())
		for _, s := range cs.Transition.SecReqs {
			if !seen[s] {
				seen[s] = true
				v.MatchedSecReqs = append(v.MatchedSecReqs, s)
			}
		}
	}
	sort.Strings(v.MatchedSecReqs)
	if !v.PreOK && mode == Enforce {
		return done(Blocked, "pre-condition failed; request not forwarded", http.StatusPreconditionFailed)
	}
	v.Forwarded, v.BackendStatus = true, status
	accepted := status >= 200 && status <= 299
	switch {
	case !v.PreOK && accepted:
		return done(ViolationForbiddenAccepted, fmt.Sprintf(
			"contract forbids %s but cloud answered %d", c.Trigger, status), http.StatusConflict)
	case !v.PreOK:
		return done(Rejected, "", status)
	case !accepted:
		return done(ViolationAllowedRejected, fmt.Sprintf(
			"contract permits %s but cloud answered %d", c.Trigger, status), http.StatusConflict)
	}
	v.FetchedPaths += paths
	ok, err := ocl.EvalBool(c.Post, ocl.Context{Cur: post, Pre: pre})
	if err != nil {
		return done(Error, err.Error(), http.StatusBadGateway)
	}
	v.PostOK = ok
	if !ok {
		return done(ViolationPostcondition, fmt.Sprintf(
			"post-condition of %s failed: %s", c.Trigger, c.Post), http.StatusConflict)
	}
	return done(OK, "", status)
}

// diffCompare asserts the equivalence contract between the reference
// verdict and a monitor arm's. Detail is compared except on Error
// outcomes: plan order may surface a different (equally real) evaluation
// error than the monolithic formula does.
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
		fail("FetchedPaths (the monitor must not fetch more)", ref.FetchedPaths, got.FetchedPaths)
	}
}

// recordingEnv is an ocl.Environment over a full state that records the
// distinct paths an evaluation resolves.
type recordingEnv struct {
	env  ocl.MapEnv
	seen map[string]bool
}

func (r *recordingEnv) Resolve(path []string) (ocl.Value, error) {
	r.seen[strings.Join(path, ".")] = true
	return r.env.Resolve(path)
}

// diffDemands is the pre-phase demand oracle: at CheckPreOnly, the
// no-facts monitor's DemandedPaths must equal the sum, over disjuncts, of
// the distinct paths ocl.Eval resolves over the full pre-state. States
// where a disjunct fails to evaluate are skipped: the monitor stops at
// the first error in plan order, the oracle in model order.
func diffDemands(t *testing.T, name string, set *contract.Set, mode Mode, method, path string, pre, post ocl.MapEnv, status int) {
	t.Helper()
	want := 0
	for _, cs := range diffContract(t, set, method).Cases {
		rec := &recordingEnv{env: pre, seen: make(map[string]bool)}
		if _, err := ocl.Eval(cs.Pre, ocl.Context{Cur: rec}); err != nil {
			return
		}
		want += len(rec.seen)
	}
	v, _ := runEngine(t, set, Config{Mode: mode, Level: CheckPreOnly, NoFacts: true}, method, path, pre, post, status)
	if v.DemandedPaths != want {
		t.Errorf("%s: pre-phase DemandedPaths = %d, ocl.Eval resolves %d", name, v.DemandedPaths, want)
	}
}

// diffArms runs one request through every monitor arm with effect-frame
// reuse off — facts off and on, and the async post pipeline — and
// compares each against the reference verdict.
func diffArms(t *testing.T, name string, set *contract.Set, mode Mode, method, path string, pre, post ocl.MapEnv, status int) {
	t.Helper()
	ref, refCode := oracleVerdict(diffContract(t, set, method), mode, pre, post, status)
	arms := []struct {
		name string
		cfg  Config
	}{
		{"no-facts", Config{Mode: mode, NoPostReuse: true, NoFacts: true}},
		{"facts", Config{Mode: mode, NoPostReuse: true}},
		{"async", Config{Mode: mode, NoPostReuse: true, NoFacts: true, Post: PostAsync}},
	}
	var syncV Verdict
	for _, arm := range arms {
		v, code := runEngine(t, set, arm.cfg, method, path, pre, post, status)
		wantCode := refCode
		if arm.cfg.Post == PostAsync {
			// The async arm's one designed observable difference: a
			// verdict decided in the deferred post phase (violation or
			// evaluation error) lands after the client already has the
			// backend's answer, so the wire code is the backend's, not
			// the 409/502 the synchronous monitor substitutes.
			if v.Late {
				wantCode = v.BackendStatus
			}
			// Deferring the post phase changes no fetch or demand count.
			if v.FetchedPaths != syncV.FetchedPaths || v.DemandedPaths != syncV.DemandedPaths {
				t.Errorf("%s/async: economy diverged: fetched %d demanded %d, sync %d/%d",
					name, v.FetchedPaths, v.DemandedPaths, syncV.FetchedPaths, syncV.DemandedPaths)
			}
		}
		diffCompare(t, name+"/"+arm.name, ref, v, wantCode, code)
		if arm.name == "no-facts" {
			syncV = v
		}
	}
	diffDemands(t, name+"/demands", set, mode, method, path, pre, post, status)
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
// both modes — every arm against the reference with post-state reuse
// disabled (the unconditionally equivalent configuration).
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
	// Undefined inputs: missing paths resolve to Undefined.
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
				diffArms(t, name, set, mode, rq.method, rq.path, st.pre, st.post, st.status)
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

// TestDifferentialFuzzStates drives every arm over seeded random pre and
// post states and demands the reference verdict (reuse off: post states
// are unconstrained, so the frame assumption does not hold).
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
		diffArms(t, name, set, mode, rq.method, rq.path, pre, post, status)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v status=%d", i, pre, post, status)
		}
	}
}

// TestDifferentialPostReuseOnFrameRespectingStates checks the default
// configuration (effect-frame reuse ON) against the reference, on post
// states that
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
		ref, refCode := oracleVerdict(diffContract(t, set, rq.method), Enforce, pre, post, 204)
		v, code := runEngine(t, set, Config{Mode: Enforce, NoFacts: true}, rq.method, rq.path, pre, post, 204)
		vf, cf := runEngine(t, set, Config{Mode: Enforce}, rq.method, rq.path, pre, post, 204)
		diffCompare(t, name, ref, v, refCode, code)
		diffCompare(t, name+"/facts", ref, vf, refCode, cf)
		if t.Failed() {
			t.Fatalf("first divergence at iteration %d: pre=%v post=%v", i, pre, post)
		}
	}
}

// TestLazyFetchEconomyOnPaperModel pins the headline numbers of
// demand-driven checking on the paper's Cinder model: a clean GET needs 5
// cloud reads against the 8 of two whole-contract snapshots
// (2 × StatePaths), and a clean DELETE 6 against 10. The reads before the
// forward go out in one wave, so each check waits on 2 provider rounds:
// the pre-state wave and the one post-state read.
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
		// wantPreRounds are the provider rounds before the forward; each
		// check adds one round per post-state read, 1 here.
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
		if got := 2 * len(diffContract(t, set, tc.method).StatePaths()); got != tc.wantEager {
			t.Errorf("%s: two whole-contract snapshots read %d paths, want %d", tc.method, got, tc.wantEager)
		}
		vp, _ := runEngine(t, set, Config{Mode: Enforce}, tc.method, tc.path, tc.pre, tc.post, tc.status)
		if vp.Outcome != OK {
			t.Fatalf("%s: outcome %s, want ok", tc.method, vp.Outcome)
		}
		if vp.FetchedPaths != tc.wantPlan {
			t.Errorf("%s: fetched %d paths, want %d", tc.method, vp.FetchedPaths, tc.wantPlan)
		}
		if vp.ReusedPaths != tc.wantReused {
			t.Errorf("%s: reused %d paths, want %d", tc.method, vp.ReusedPaths, tc.wantReused)
		}
		if want := tc.wantPreRounds + 1; vp.FetchRounds != want {
			t.Errorf("%s: waited on %d provider rounds, want %d pre-phase + 1 post read",
				tc.method, vp.FetchRounds, tc.wantPreRounds)
		}
	}
}

// TestDifferentialFailPolicies checks that every snapshot-failure policy
// degrades identically with facts on and off: a cloud outage must yield
// the same outcome and attribution whether or not compile-time facts
// pruned clauses, and facts never read more. Three fault shapes are
// driven per policy: pre-phase failure (cold), post-phase failure, and —
// for Degrade — a warmed cache followed by an outage, which must serve the
// cached pre-state in both arms.
func TestDifferentialFailPolicies(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	build := func(noFacts bool, policy FailPolicy, prov StateProvider) *Monitor {
		t.Helper()
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
		tag := policy.String()

		// Pre-phase outage from the first request.
		run := func(noFacts bool) (Verdict, int) {
			prov := &switchProvider{env: good}
			prov.fail.Store(true)
			return send(build(noFacts, policy, prov))
		}
		vp, cp := run(true)
		vf, cf := run(false)
		diffCompare(t, tag+"/pre-fault", vp, vf, cp, cf)
		if vp.DegradedPre != vf.DegradedPre {
			t.Errorf("%s/pre-fault: DegradedPre diverged: facts off %v, on %v", tag, vp.DegradedPre, vf.DegradedPre)
		}

		// Post-phase outage: the pre-check passes, the post snapshot
		// fails mid-request.
		runPost := func(noFacts bool) (Verdict, int) {
			return send(build(noFacts, policy, &prePostProvider{pre: good}))
		}
		vp, cp = runPost(true)
		vf, cf = runPost(false)
		diffCompare(t, tag+"/post-fault", vp, vf, cp, cf)

		if policy != Degrade {
			continue
		}
		// Warm cache, then outage: Degrade must serve the cached
		// pre-state and mark the verdict degraded in both arms. GET keeps
		// the state fixpoint-clean across both requests.
		runWarm := func(noFacts bool) (Verdict, int) {
			prov := &switchProvider{env: good}
			m := build(noFacts, policy, prov)
			if v, _ := sendReq(m, http.MethodGet); v.Outcome != OK {
				t.Fatalf("%s/facts=%v: warm request outcome %s, want ok", tag, !noFacts, v.Outcome)
			}
			// Let the read cache lapse so the live snapshot really fails;
			// the degrade window is still wide open.
			time.Sleep(30 * time.Millisecond)
			prov.fail.Store(true)
			return sendReq(m, http.MethodGet)
		}
		vp, cp = runWarm(true)
		vf, cf = runWarm(false)
		diffCompare(t, tag+"/degrade-warm", vp, vf, cp, cf)
		if !vp.DegradedPre || !vf.DegradedPre {
			t.Errorf("%s/degrade-warm: DegradedPre facts off=%v on=%v, want both true", tag, vp.DegradedPre, vf.DegradedPre)
		}
	}
}
