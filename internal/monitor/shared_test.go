package monitor

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/paper"
)

// sharedProvider answers every request with one shared project.volumes
// collection, the way a provider that memoises decoded list bodies does.
// The requester's role is the token.
type sharedProvider struct {
	vols ocl.Value
}

func (s *sharedProvider) Snapshot(ctx *RequestContext, paths []string) (ocl.MapEnv, error) {
	out := make(ocl.MapEnv, len(paths))
	for _, p := range paths {
		switch p {
		case "project.id":
			out[p] = ocl.StringVal("p1")
		case "project.volumes":
			out[p] = s.vols
		case "quota_sets.volume":
			out[p] = ocl.IntVal(1 << 20)
		case "volume.status":
			out[p] = ocl.StringVal("available")
		case "user.id.groups":
			out[p] = ocl.StringsVal(ctx.Token)
		}
	}
	return out, nil
}

// sharedVolumes builds an n-volume collection holding v1.
func sharedVolumes(n int) ocl.Value {
	elems := make([]ocl.Value, n)
	for i := range elems {
		elems[i] = ocl.StringVal(fmt.Sprintf("v%d", i))
	}
	return ocl.Value{Kind: ocl.KindCollection, Elems: elems}
}

// serveAs sends one request through the monitor with the role as token.
func serveAs(m *Monitor, method, path, role string) int {
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("X-Auth-Token", role)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	return rec.Code
}

// TestSharedProviderValuesStayReadOnly: provider values may be shared
// across requests (StateProvider's contract), so nothing downstream may
// write into them. Compiled-engine checks of every verdict shape, audit
// writes of their snapshots, and replay of the trail all run over one
// shared collection, which must come out deep-equal to a copy taken
// before.
func TestSharedProviderValuesStayReadOnly(t *testing.T) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	audit, err := obs.OpenAuditLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedVolumes(256)
	before := sharedVolumes(256)
	p := &sharedProvider{vols: shared}
	m := newMonitor(t, Enforce, p, &fakeForwarder{status: 200})
	m.audit = audit

	const item = "/projects/p1/volumes/v1"
	for i := 0; i < 20; i++ {
		serveAs(m, http.MethodGet, item, paper.RoleAdmin)                    // ok
		serveAs(m, http.MethodPut, item, paper.RoleMember)                   // ok
		serveAs(m, http.MethodDelete, item, paper.RoleMember)                // blocked
		serveAs(m, http.MethodDelete, item, paper.RoleAdmin)                 // list did not shrink: violation
		serveAs(m, http.MethodPost, "/projects/p1/volumes", "-")             // blocked
		serveAs(m, http.MethodPost, "/projects/p1/volumes", paper.RoleAdmin) // list did not grow: violation
	}
	counts := m.Outcomes()
	if counts[OK] == 0 || counts[Blocked] == 0 || counts[ViolationPostcondition] == 0 {
		t.Fatalf("verdict mix %v lacks a shape the test needs", counts)
	}
	if err := audit.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := obs.ReadAuditDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(set)
	if err != nil {
		t.Fatal(err)
	}
	if sum := r.ReplayAll(res.Records); !sum.OK() || sum.Matched == 0 {
		t.Fatalf("replay %+v (failures %+v)", sum, sum.Failures)
	}
	if !reflect.DeepEqual(shared, before) {
		t.Fatal("a check, audit write or replay wrote into the provider's shared collection")
	}
	for _, v := range m.Log() {
		if got, ok := v.PreSnapshot["project.volumes"]; ok && got.Size() != 256 {
			t.Fatalf("retained pre-state holds %d volumes, want the shared 256", got.Size())
		}
	}
}

// TestSharedCollectionCheckAllocsIndependentOfLength gates a monitored
// read over a shared collection on counts: a 256-volume list costs the
// same number of allocations as a 16-volume one, so no stage decodes or
// builds anything per element, and no more than 1 KiB more per request,
// so no stage copies the provider's collection (a copy of 256 values is
// 16 KiB).
func TestSharedCollectionCheckAllocsIndependentOfLength(t *testing.T) {
	const runs = 200
	measure := func(n int) (allocs, bytes float64) {
		m := newMonitor(t, Enforce, &sharedProvider{vols: sharedVolumes(n)}, &fakeForwarder{status: 200})
		get := func() { serveAs(m, http.MethodGet, "/projects/p1/volumes/v1", paper.RoleAdmin) }
		get()
		allocs = testing.AllocsPerRun(runs, get)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallN, smallB := measure(16)
	largeN, largeB := measure(256)
	t.Logf("monitored GET: %.0f allocs / %.0f B at 16 volumes, %.0f allocs / %.0f B at 256", smallN, smallB, largeN, largeB)
	// Per-element work would add hundreds; the slack of 2 absorbs the
	// race detector's random sync.Pool drops of pooled frames.
	if math.Abs(largeN-smallN) > 2 {
		t.Fatalf("monitored GET allocates %.0f objects at 256 volumes vs %.0f at 16", largeN, smallN)
	}
	if largeB-smallB > 1024 {
		t.Fatalf("monitored GET allocates %.0f B at 256 volumes vs %.0f B at 16: the collection is copied", largeB, smallB)
	}
}
