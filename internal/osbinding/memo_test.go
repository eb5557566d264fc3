package osbinding

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cloudmon/internal/faults"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/uml"
)

// volumes resolves project.volumes for the fixture's project.
func (f *fixture) volumes(t *testing.T) ocl.Value {
	t.Helper()
	env, err := f.provider.Snapshot(f.ctx(""), []string{"project.volumes"})
	if err != nil {
		t.Fatal(err)
	}
	return env["project.volumes"]
}

// sameBacking reports whether two non-empty collections share their
// element array.
func sameBacking(a, b ocl.Value) bool {
	return len(a.Elems) > 0 && len(b.Elems) > 0 && &a.Elems[0] == &b.Elems[0]
}

// includesID reports whether the collection holds the id.
func includesID(v ocl.Value, id string) bool {
	for _, e := range v.Elems {
		if e.Kind == ocl.KindString && e.Str == id {
			return true
		}
	}
	return false
}

// deepCopy snapshots a value so later comparisons catch in-place writes.
func deepCopy(v ocl.Value) ocl.Value {
	if v.Elems == nil {
		return v
	}
	elems := make([]ocl.Value, len(v.Elems))
	for i, e := range v.Elems {
		elems[i] = deepCopy(e)
	}
	v.Elems = elems
	return v
}

// TestListMemoReusesIdenticalBody: a repeated identical list body returns
// the memoised collection (same backing array), while every read is
// still a GET against the cloud; /metrics carries the reuse count.
func TestListMemoReusesIdenticalBody(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 3; i++ {
		if _, err := f.cloud.Volumes.Create(f.projectID, fmt.Sprintf("v%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	first := f.volumes(t)
	if first.Size() != 3 {
		t.Fatalf("project.volumes = %v, want 3 ids", first)
	}
	before := f.provider.Stats()
	for i := 1; i <= 4; i++ {
		again := f.volumes(t)
		if !sameBacking(first, again) {
			t.Fatalf("read %d decoded afresh; want the memoised collection", i)
		}
		st := f.provider.Stats()
		if got := st.Gets - before.Gets; got != uint64(i) {
			t.Fatalf("after %d reads Gets rose by %d: a memo hit must still GET", i, got)
		}
		if got := st.ListReuses - before.ListReuses; got != uint64(i) {
			t.Fatalf("after %d identical reads ListReuses rose by %d", i, got)
		}
	}

	reg := &obs.Registry{}
	f.provider.RegisterMetrics(reg)
	samples, err := obs.ParseText([]byte(reg.Render()))
	if err != nil {
		t.Fatal(err)
	}
	reused := obs.Find(samples, "cloudmon_list_decode_reused_total")
	if len(reused) != 1 || uint64(reused[0].Value) != f.provider.Stats().ListReuses {
		t.Fatalf("cloudmon_list_decode_reused_total = %v, Stats().ListReuses = %d", reused, f.provider.Stats().ListReuses)
	}
}

// TestListMemoDecodesChangedBody: a create or delete changes the body, so
// the next read yields a fresh collection, and the collection handed out
// earlier is left exactly as it was.
func TestListMemoDecodesChangedBody(t *testing.T) {
	f := newFixture(t)
	if _, err := f.cloud.Volumes.Create(f.projectID, "a", 1); err != nil {
		t.Fatal(err)
	}
	old := f.volumes(t)
	oldCopy := deepCopy(old)

	v, err := f.cloud.Volumes.Create(f.projectID, "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	reuses := f.provider.Stats().ListReuses
	grown := f.volumes(t)
	if grown.Size() != 2 || sameBacking(old, grown) {
		t.Fatalf("after a create: %v (shared with the old value: %v)", grown, sameBacking(old, grown))
	}
	if !includesID(grown, v.ID) {
		t.Fatalf("after a create: %v lacks %s", grown, v.ID)
	}

	if err := f.cloud.Volumes.Delete(f.projectID, v.ID); err != nil {
		t.Fatal(err)
	}
	shrunk := f.volumes(t)
	if shrunk.Size() != 1 || sameBacking(grown, shrunk) || sameBacking(old, shrunk) {
		t.Fatalf("after a delete: %v", shrunk)
	}
	if got := f.provider.Stats().ListReuses; got != reuses {
		t.Fatalf("changed bodies counted %d reuses", got-reuses)
	}
	if !reflect.DeepEqual(old, oldCopy) {
		t.Fatalf("an earlier value changed under its holder: %v, was %v", old, oldCopy)
	}
}

// listCloud serves one volume list with a status and body the test sets.
type listCloud struct {
	mu     sync.Mutex
	status int
	body   []byte
}

func (l *listCloud) set(status int, body []byte) {
	l.mu.Lock()
	l.status, l.body = status, body
	l.mu.Unlock()
}

func (l *listCloud) serve(_ int, w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	status, body := l.status, l.body
	l.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// volumeList renders a volume list body of n volumes shaped like the
// simulated cloud's.
func volumeList(n int) []byte {
	var sb strings.Builder
	sb.WriteString(`{"volumes": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `{"id": "vol-%04d", "name": "v%d", "size": 1, "status": "available", "project_id": "p1"}`, i, i)
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// listCtx addresses project p1 of the scripted clouds.
func listCtx() *monitor.RequestContext {
	return &monitor.RequestContext{Method: uml.GET, Resource: "volume", Params: map[string]string{"project_id": "p1"}}
}

// TestListMemoEvictedOn404: a 404 on the list yields OclUndefined and
// drops the entry, so the same body afterwards is decoded afresh.
func TestListMemoEvictedOn404(t *testing.T) {
	lc := &listCloud{}
	lc.set(http.StatusOK, volumeList(4))
	p := scriptedProvider(&scriptedCloud{handler: lc.serve}, fastRetry)

	read := func() ocl.Value {
		t.Helper()
		env, err := p.Snapshot(listCtx(), []string{"project.volumes"})
		if err != nil {
			t.Fatal(err)
		}
		return env["project.volumes"]
	}
	warm := read()
	if warm.Size() != 4 {
		t.Fatalf("project.volumes = %v", warm)
	}
	lc.set(http.StatusNotFound, []byte(`{"error": {"message": "no such project"}}`))
	if got := read(); !got.IsUndefined() {
		t.Fatalf("404 list = %v, want OclUndefined", got)
	}
	if _, ok := p.lists.Load("/volume/v3/p1/volumes"); ok {
		t.Fatal("404 left the memo entry in place")
	}
	lc.set(http.StatusOK, volumeList(4))
	again := read()
	if !again.Equal(warm) || sameBacking(warm, again) {
		t.Fatalf("after eviction: %v (shared with the evicted value: %v)", again, sameBacking(warm, again))
	}
	if got := p.Stats().ListReuses; got != 0 {
		t.Fatalf("ListReuses = %d after an eviction, want 0", got)
	}
}

// TestListMemoFaultyBodiesFail: with a warm memo, a truncated or
// malformed list body is a read error — never the memoised value — and
// the entry survives for the next good read.
func TestListMemoFaultyBodiesFail(t *testing.T) {
	for _, kind := range []faults.Kind{faults.KindTruncate, faults.KindMalformed} {
		t.Run(string(kind), func(t *testing.T) {
			lc := &listCloud{}
			lc.set(http.StatusOK, volumeList(8))
			inj := faults.NewInjector(&faults.Profile{Rules: []faults.Rule{
				{Kind: kind, Method: http.MethodGet, Path: "/volumes", Every: 1},
			}})
			inj.SetEnabled(false)
			cloud := &scriptedCloud{handler: lc.serve}
			p := NewProviderWithClient("http://cloud.internal", ServiceAccount{User: "svc", Password: "pw", ProjectID: "p1"},
				&http.Client{Transport: inj.RoundTripper(httpkit.HandlerRoundTripper(cloud))})
			p.Retry = fastRetry

			warm, err := p.Snapshot(listCtx(), []string{"project.volumes"})
			if err != nil {
				t.Fatal(err)
			}
			inj.SetEnabled(true)
			if env, err := p.Snapshot(listCtx(), []string{"project.volumes"}); err == nil {
				t.Fatalf("%s body resolved to %v; want a read error", kind, env["project.volumes"])
			}
			if n := inj.Counts()[string(kind)]; n < 1 {
				t.Fatalf("injector never fired %s", kind)
			}
			if got := p.Stats().ListReuses; got != 0 {
				t.Fatalf("a faulty body counted as a memo hit (%d)", got)
			}
			inj.SetEnabled(false)
			env, err := p.Snapshot(listCtx(), []string{"project.volumes"})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBacking(warm["project.volumes"], env["project.volumes"]) {
				t.Fatal("the good read after the fault did not reuse the memo")
			}
		})
	}
}

// TestListMemoConcurrentSnapshots runs wave-style concurrent Snapshot
// calls on one project while the cloud's list changes underneath; run
// under -race.
func TestListMemoConcurrentSnapshots(t *testing.T) {
	f := newFixture(t)
	vol, err := f.cloud.Volumes.Create(f.projectID, "base", 1)
	if err != nil {
		t.Fatal(err)
	}
	const readers, rounds = 8, 40
	var failures atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := f.cloud.Volumes.Create(f.projectID, "churn", 1)
			if err != nil {
				failures.Add(1)
				return
			}
			// A failed delete only leaves a volume the readers then flag.
			_ = f.cloud.Volumes.Delete(f.projectID, v.ID)
		}
	}()
	var readWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			ctx := f.ctx(vol.ID)
			for i := 0; i < rounds; i++ {
				env, err := f.provider.Snapshot(ctx, []string{"project.volumes", "volume.status"})
				if err != nil {
					failures.Add(1)
					return
				}
				vols := env["project.volumes"]
				if n := vols.Size(); n < 1 || n > 2 || !includesID(vols, vol.ID) {
					failures.Add(1)
					return
				}
			}
		}()
	}
	readWG.Wait()
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d concurrent reads failed or saw an impossible list", n)
	}
	if got, want := f.provider.Stats().Gets, uint64(readers*rounds*2); got != want {
		t.Fatalf("Gets = %d, want %d: every read must reach the cloud", got, want)
	}
}

// TestListMemoHitAllocsConstant gates the cost of a memo hit by count: it
// allocates the same number of objects for a 256-volume list as for a
// 16-volume one, so nothing per element is decoded or copied.
func TestListMemoHitAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		lc := &listCloud{}
		lc.set(http.StatusOK, volumeList(n))
		p := scriptedProvider(&scriptedCloud{handler: lc.serve}, fastRetry)
		ctx := listCtx()
		paths := []string{"project.volumes"}
		if _, err := p.Snapshot(ctx, paths); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := p.Snapshot(ctx, paths); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	t.Logf("memo hit: %.0f allocs at 16 volumes, %.0f at 256", small, large)
	if large != small {
		t.Fatalf("memo hit allocates %.0f objects at 256 volumes vs %.0f at 16: cost grows with the list", large, small)
	}
}

// BenchmarkListResolve measures resolving a 256-volume project.volumes,
// cold (every read decodes the body) against warm (every read hits the
// memo). Both arms make the same GET per read.
func BenchmarkListResolve(b *testing.B) {
	for _, arm := range []string{"cold", "warm"} {
		b.Run(arm, func(b *testing.B) {
			lc := &listCloud{}
			lc.set(http.StatusOK, volumeList(256))
			p := scriptedProvider(&scriptedCloud{handler: lc.serve}, fastRetry)
			ctx := listCtx()
			paths := []string{"project.volumes"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm == "cold" {
					p.lists.Delete("/volume/v3/p1/volumes")
				}
				if _, err := p.Snapshot(ctx, paths); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
