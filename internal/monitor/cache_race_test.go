package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmon/internal/ocl"
)

// counterProvider snapshots a monotonically increasing counter — a stand-in
// for cloud state that concurrent writes keep advancing.
type counterProvider struct {
	n atomic.Int64
}

func (p *counterProvider) Snapshot(_ *RequestContext, paths []string) (ocl.MapEnv, error) {
	v := ocl.IntVal(int(p.n.Load()))
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		out[path] = v
	}
	return out, nil
}

// TestCacheGenerationRace races the pre-state cache's generation
// invalidation against concurrent forwarded writes. Writers advance the
// cloud counter and then bump the project generation (exactly what a
// forwarded write does); readers record the writers' published progress
// before snapshotting and demand the served pre-state is at least that
// fresh — a stale value surviving a generation bump is the bug the
// per-entry generation stamp exists to prevent. Run with -race.
func TestCacheGenerationRace(t *testing.T) {
	p := &counterProvider{}
	m := newPolicyMonitor(t, Config{
		Provider:         p,
		Forward:          &fakeForwarder{status: 200},
		PreStateCacheTTL: time.Hour, // entries never expire; only generations invalidate
	})
	paths := []string{"quota_sets.volume"}
	reqCtx := &RequestContext{Params: map[string]string{"project_id": "p1"}, Token: "tok"}

	// progress publishes the counter value whose invalidation has
	// completed: any snapshot starting after must serve >= progress.
	var progress atomic.Int64
	const (
		writers    = 4
		readers    = 4
		iterations = 2000
	)
	var wg sync.WaitGroup
	errs := make(chan string, readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				v := p.n.Add(1)
				m.InvalidateProject("p1")
				// Publish monotonically: a racing slower writer must not
				// roll the floor back.
				for {
					cur := progress.Load()
					if v <= cur || progress.CompareAndSwap(cur, v) {
						break
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				floor := progress.Load()
				// One pre-state read as a GET check makes it: cache
				// first, then a shared provider read.
				f := &lazyFetcher{m: m, reqCtx: reqCtx, project: "p1", join: true,
					pk: paramsCacheKey(reqCtx.Params), wave: paths}
				env := newLazyEnv()
				if err := f.fetchPre(env, paths[0]); err != nil {
					errs <- "snapshot error: " + err.Error()
					return
				}
				v, ok := env.value(paths[0])
				if !ok {
					errs <- "snapshot missing path"
					return
				}
				if int64(v.Int) < floor {
					errs <- "stale pre-state served across a generation bump"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
