package contract

import (
	"testing"

	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
	"cloudmon/internal/uml"
)

// TestCinderFactsExclusions pins the witness exclusions the symbolic pass
// proves on the paper's model: every ordered pair of disjuncts of every
// trigger is mutually exclusive (the states partition the quota space),
// each with a runtime-checkable witness element.
func TestCinderFactsExclusions(t *testing.T) {
	set := generate(t)
	wantPairs := map[string]int{
		"POST(volume)":   12, // 4 disjuncts, all ordered pairs excluded
		"DELETE(volume)": 6,
		"GET(volume)":    2,
		"PUT(volume)":    2,
	}
	for _, c := range set.Contracts {
		f := c.Plan().Facts
		if f == nil {
			t.Fatalf("%s: no facts", c.Trigger)
		}
		if err := f.Check(c); err != nil {
			t.Fatalf("%s: %v", c.Trigger, err)
		}
		total := 0
		for _, exs := range f.Exclusions {
			total += len(exs)
		}
		if want := wantPairs[c.Trigger.String()]; total != want {
			t.Errorf("%s: %d exclusions, want %d", c.Trigger, total, want)
		}
		for i, pf := range f.Pre {
			if pf.Static != nil {
				t.Errorf("%s case %d: unexpected static value %s", c.Trigger, i, pf.Static)
			}
			if len(pf.SubsumedBy) != 0 {
				t.Errorf("%s case %d: unexpected subsumption by %v", c.Trigger, i, pf.SubsumedBy)
			}
			if pf.Rewritten {
				t.Errorf("%s case %d: unexpected fold rewrite to %s", c.Trigger, i, pf.Folded)
			}
		}
		if len(f.DeadPaths) != 0 {
			t.Errorf("%s: unexpected dead paths %v", c.Trigger, f.DeadPaths)
		}
	}

	// Spot-check the DELETE witnesses: once the size()=1 disjunct is
	// true, its siblings are decided by a single element each.
	del, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	f := del.Plan().Facts
	ex := exclusionFrom(t, f, 1, 0) // target case 1, provider case 0
	if ex.Witness.String() != "project.volumes->size() > 1" || ex.WitnessPos != 3 {
		t.Errorf("DELETE 0=>1 witness = %q at %d", ex.Witness, ex.WitnessPos)
	}
	ex = exclusionFrom(t, f, 2, 0)
	if ex.Witness.String() != "project.volumes = quota_sets.volume" || ex.WitnessPos != 2 {
		t.Errorf("DELETE 0=>2 witness = %q at %d", ex.Witness, ex.WitnessPos)
	}
	if ex.Reason == "" {
		t.Error("exclusion carries no reason trace")
	}

	// And the POST quota split: quota > 1 versus quota = 1.
	post, _ := set.For(uml.Trigger{Method: uml.POST, Resource: "volume"})
	ex = exclusionFrom(t, post.Plan().Facts, 1, 0)
	if ex.Witness.String() != "quota_sets.volume = 1" || ex.WitnessPos != 3 {
		t.Errorf("POST 0=>1 witness = %q at %d", ex.Witness, ex.WitnessPos)
	}
}

func exclusionFrom(t *testing.T, f *Facts, target, provider int) Exclusion {
	t.Helper()
	for _, ex := range f.Exclusions[target] {
		if ex.Provider == provider {
			return ex
		}
	}
	t.Fatalf("no exclusion for case %d from provider %d", target, provider)
	return Exclusion{}
}

// TestFactsStaticClauses: a disjunct whose guard is contradictory folds
// to a static false; its paths leave the demand universe, its implication
// is vacuous, and paths only it read are reported dead.
func TestFactsStaticClauses(t *testing.T) {
	c := &Contract{
		Cases: []Case{
			{
				Pre:  ocl.MustParse("thing.items->size() = 1 and 2 > 3"),
				Post: ocl.MustParse("thing.items->size() = 0"),
			},
			{
				Pre:  ocl.MustParse("thing.other->size() >= 1"),
				Post: ocl.MustParse("thing.other->size() >= 1"),
			},
		},
	}
	f := c.Plan().Facts
	if err := f.Check(c); err != nil {
		t.Fatal(err)
	}
	pf := f.Pre[0]
	if !pf.Rewritten || pf.Folded.String() != "thing.items->size() = 1 and false" {
		t.Errorf("folded = %q (rewritten=%v)", pf.Folded, pf.Rewritten)
	}
	if pf.Static == nil || pf.Static.Kind != ocl.KindBool || pf.Static.Bool {
		t.Fatalf("case 0 static = %v, want false", pf.Static)
	}
	if pf.Reason == "" {
		t.Error("static fact carries no reason trace")
	}
	if s := f.Post[0].AnteStatic; s == nil || s.Bool {
		t.Errorf("post 0 AnteStatic = %v, want false", s)
	}
	if len(f.DeadPaths) != 1 || f.DeadPaths[0].Path != "thing.items" {
		t.Errorf("dead paths = %v, want [thing.items]", f.DeadPaths)
	}
	if f.Pre[1].Static != nil {
		t.Errorf("case 1 unexpectedly static: %v", f.Pre[1].Static)
	}

	// A tautological disjunct is static true; nothing is dead (its
	// consequent still runs).
	c2 := &Contract{Cases: []Case{{
		Pre:  ocl.MustParse("2 > 1"),
		Post: ocl.MustParse("thing.items->size() = 0"),
	}}}
	f2 := c2.Plan().Facts
	if s := f2.Pre[0].Static; s == nil || !s.Bool {
		t.Fatalf("static = %v, want true", s)
	}
	if len(f2.DeadPaths) != 0 {
		t.Errorf("dead paths = %v, want none", f2.DeadPaths)
	}
}

// TestFactsSubsumption: a strictly stronger disjunct is reported as
// subsumed by its weaker sibling (diagnostic MV702 feed).
func TestFactsSubsumption(t *testing.T) {
	c := &Contract{
		Cases: []Case{
			{Pre: ocl.MustParse("a.x->size() >= 1"), Post: ocl.MustParse("a.x->size() >= 1")},
			{Pre: ocl.MustParse("a.x->size() > 1"), Post: ocl.MustParse("a.x->size() >= 1")},
		},
	}
	f := c.Plan().Facts
	if got := f.Pre[1].SubsumedBy; len(got) != 1 || got[0] != 0 {
		t.Errorf("case 1 SubsumedBy = %v, want [0]", got)
	}
	if len(f.Pre[0].SubsumedBy) != 0 {
		t.Errorf("case 0 SubsumedBy = %v, want none", f.Pre[0].SubsumedBy)
	}
}

// TestFactsWitnessBlockedByErroringPrefix: an element that may error and
// is not shared with the provider blocks the witness scan — skipping past
// it could hide an evaluation error full evaluation reports.
func TestFactsWitnessBlockedByErroringPrefix(t *testing.T) {
	c := &Contract{
		Cases: []Case{
			{Pre: ocl.MustParse("a.x->size() = 0"), Post: ocl.MustParse("a.x->size() = 0")},
			{
				// a.y + 1 = 2 can error (arithmetic on an arbitrary kind)
				// and the provider does not evaluate it.
				Pre:  ocl.MustParse("a.y + 1 = 2 and a.x->size() >= 1"),
				Post: ocl.MustParse("a.x->size() >= 1"),
			},
		},
	}
	f := c.Plan().Facts
	if len(f.Exclusions[1]) != 0 {
		t.Errorf("expected no exclusion past a possibly-erroring prefix, got %+v", f.Exclusions[1])
	}
	// The reverse direction is fine: case 0's single element is refuted
	// and has no prefix.
	if len(f.Exclusions[0]) != 1 {
		t.Errorf("expected the reverse exclusion, got %+v", f.Exclusions[0])
	}
}

// TestFactsOnShippedModels: the artifact machine-check passes on every
// model the repository ships.
func TestFactsOnShippedModels(t *testing.T) {
	models := map[string]*uml.Model{
		"cinder": paper.CinderModel(),
	}
	for name, m := range models {
		set, err := Generate(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range set.Contracts {
			if err := c.Plan().Facts.Check(c); err != nil {
				t.Errorf("%s %s: %v", name, c.Trigger, err)
			}
		}
	}
}
