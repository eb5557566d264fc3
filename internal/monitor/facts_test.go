package monitor

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
)

// TestFactsPruneOnPaperModel pins what fact pruning saves on the paper's
// Cinder model, measured in per-clause path demands (DemandedPaths): once
// one disjunct of a trigger is observed true, every sibling is decided by
// a single witness element instead of a full evaluation.
func TestFactsPruneOnPaperModel(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, method, path   string
		pre, post            ocl.MapEnv
		wantSkipped          int
		wantFacts, wantPlain int // DemandedPaths with facts on / off
	}{
		// DELETE of the project's last volume: the size()=1 disjunct is
		// true, arming the witness exclusion of its size()>1 sibling.
		{"delete-last", http.MethodDelete, "/projects/p1/volumes/v1",
			env(1, 10, "available", "admin"), env(0, 10, "available", "admin"),
			1, 12, 14},
		// POST into an empty project: the NoVolume disjunct is true and
		// all three siblings are decided by one witness element each.
		{"post-empty", http.MethodPost, "/projects/p1/volumes",
			env(0, 10, "available", "admin"), env(1, 10, "available", "admin"),
			3, 11, 16},
	}
	for _, tc := range cases {
		vf, _ := runEngine(t, set, Config{Mode: Enforce}, tc.method, tc.path, tc.pre, tc.post, 204)
		vl, _ := runEngine(t, set, Config{Mode: Enforce, NoFacts: true}, tc.method, tc.path, tc.pre, tc.post, 204)
		if vf.Outcome != OK || vl.Outcome != OK {
			t.Fatalf("%s: outcomes facts=%s plain=%s, want ok/ok", tc.name, vf.Outcome, vl.Outcome)
		}
		if vl.FactsSkipped != 0 {
			t.Errorf("%s: NoFacts verdict reports %d skips", tc.name, vl.FactsSkipped)
		}
		if vf.FactsSkipped != tc.wantSkipped {
			t.Errorf("%s: FactsSkipped = %d, want %d", tc.name, vf.FactsSkipped, tc.wantSkipped)
		}
		if vf.DemandedPaths >= vl.DemandedPaths {
			t.Errorf("%s: facts did not reduce demands: %d with, %d without",
				tc.name, vf.DemandedPaths, vl.DemandedPaths)
		}
		if vf.DemandedPaths != tc.wantFacts || vl.DemandedPaths != tc.wantPlain {
			t.Errorf("%s: DemandedPaths = %d/%d (facts/plain), want %d/%d",
				tc.name, vf.DemandedPaths, vl.DemandedPaths, tc.wantFacts, tc.wantPlain)
		}
	}
}

// TestFactsDebugRecheck drives the FactsDebug tripwire over seeded random
// states: every fact-decided clause value is re-derived the slow way, and
// the mismatch counter must stay zero while prunes actually fire.
func TestFactsDebugRecheck(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Contracts:  set,
		Routes:     diffRoutes(),
		Provider:   &fakeProvider{},
		Forward:    &fakeForwarder{status: 204},
		FactsDebug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := m.provider.(*fakeProvider)
	rng := rand.New(rand.NewSource(7))
	reqs := diffRequests()
	for i := 0; i < 200; i++ {
		rq := reqs[rng.Intn(len(reqs))]
		p.pre, p.post = randomEnv(rng), randomEnv(rng)
		req := httptest.NewRequest(rq.method, rq.path, nil)
		req.Header.Set("X-Auth-Token", "tok")
		m.ServeHTTP(httptest.NewRecorder(), req)
	}
	if n := m.factsMismatch.Value(); n != 0 {
		t.Fatalf("FactsDebug found %d mismatches: a fact decided a value the evaluator disagrees with", n)
	}
	pruned := m.factsPruned.Snapshot()
	if pruned[factsPrunedPreSibling] == 0 {
		t.Errorf("no witness skips fired over 200 random states: %v", pruned)
	}
}

// TestFactsMetricsAndReset: the pruning counters surface in /metrics under
// cloudmon_facts_* and ResetLog clears them.
func TestFactsMetricsAndReset(t *testing.T) {
	pre := env(1, 10, "available", "admin")
	post := env(0, 10, "available", "admin")
	m := newMonitor(t, Enforce, &fakeProvider{pre: pre, post: post}, &fakeForwarder{status: 204})
	doDelete(t, m)
	if got := m.factsPruned.Snapshot()[factsPrunedPreSibling]; got != 1 {
		t.Fatalf("pre-sibling prunes = %d, want 1", got)
	}
	m.ResetLog()
	if got := m.factsPruned.Snapshot()[factsPrunedPreSibling]; got != 0 {
		t.Errorf("prune counter survived ResetLog: %d", got)
	}
	if m.factsMismatch.Value() != 0 {
		t.Errorf("mismatch counter non-zero after reset")
	}
}

// TestFactsDebugTripwireFires plants an unsound fact — a copy of the
// DELETE plan whose first disjunct is "proven" true — and sends a request
// every disjunct refutes. The FactsDebug re-check must count the
// mismatch, and the verdict must differ from the reference: the fact, not
// the state, decided it.
func TestFactsDebugTripwireFires(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	pre, post := env(2, 10, "available", "intruder"), env(1, 10, "available", "intruder")
	ref, _ := oracleVerdict(diffContract(t, set, http.MethodDelete), Enforce, pre, post, 204)
	if ref.Outcome != Blocked {
		t.Fatalf("reference outcome %s, want blocked", ref.Outcome)
	}
	m, err := New(Config{
		Contracts:  set,
		Routes:     diffRoutes(),
		Provider:   &fakeProvider{pre: pre, post: post},
		Forward:    &fakeForwarder{status: 204},
		FactsDebug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr, _, ok := m.match(httptest.NewRequest(http.MethodDelete, "/projects/p1/volumes/v1", nil))
	if !ok {
		t.Fatal("no DELETE route")
	}
	plan := *cr.plan
	facts := *plan.Facts
	facts.Pre = slices.Clone(facts.Pre)
	wrong := ocl.BoolVal(true)
	facts.Pre[plan.Pre[0].Index].Static = &wrong
	plan.Facts = &facts
	cr.plan = &plan

	doDelete(t, m)
	if n := m.factsMismatch.Value(); n == 0 {
		t.Error("FactsDebug counted no mismatch for a planted unsound fact")
	}
	if v := lastVerdict(t, m); v.Outcome == ref.Outcome {
		t.Errorf("verdict %s matches the reference; the planted fact decided nothing", v.Outcome)
	}
}
