package monitor

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// fetchError wraps a cloud fetch failure so the check loop can tell
// snapshot failures (fail-policy territory) from formula evaluation errors.
type fetchError struct{ err error }

func (e *fetchError) Error() string { return e.err.Error() }
func (e *fetchError) Unwrap() error { return e.err }

// lazyEnv is a state snapshot filled on demand: the verdict's snapshot of
// record and the pre-state an async post check carries. Each set is
// mirrored into the compiled engine's slot frame, so the env and the frame
// never disagree about what has been fetched.
type lazyEnv struct {
	vals ocl.MapEnv
	have map[string]bool
	// slotSet, when non-nil, mirrors every set into the compiled engine's
	// frame bank.
	slotSet func(path string, v ocl.Value, present bool)
}

func newLazyEnv() *lazyEnv {
	return &lazyEnv{vals: make(ocl.MapEnv), have: make(map[string]bool)}
}

// set records a fetched value (present=false marks the path as fetched but
// absent, resolving to Undefined from now on).
func (e *lazyEnv) set(path string, v ocl.Value, present bool) {
	e.have[path] = true
	if present {
		e.vals[path] = v
	}
	if e.slotSet != nil {
		e.slotSet(path, v, present)
	}
}

// fetched reports whether the path has been resolved already.
func (e *lazyEnv) fetched(path string) bool { return e.have[path] }

// value returns the stored value for a fetched path (ok=false: absent).
func (e *lazyEnv) value(path string) (ocl.Value, bool) {
	v, ok := e.vals[path]
	return v, ok
}

// flightGroup shares concurrent cloud reads between requests. The first
// request to read a key leads a flight and calls the provider; a request
// that reads the same key while the flight is open may join it and wait
// for the leader's value instead of reading itself. Keys are the
// provider's ReadKey (the cloud read a path resolves through) or, for a
// provider without one, the pre-state cache key (path, token, params).
//
// A joined value must be one the joiner could have read itself, so a
// request joins only a flight that
//   - was stamped clean: no write of the project was in flight when the
//     leader's read began;
//   - still carries the project's current write epoch: no monitored write
//     started or ended since, so the state the leader reads is the state
//     the joiner would read;
//   - for a post-state read, started after the joiner's own forward
//     returned, so the read observes the joiner's effect.
//
// Only reads (GET and HEAD) join. A mutation always reads live, but its
// reads lead flights that reads may join. A request refused a join leads
// a flight of its own, which replaces the old one for later arrivals.
// A deferred post check (PostAsync) neither joins nor leads: it reads
// after its response returned, beside the same client's next request,
// and one client's requests never share a read.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
	// seq numbers flights in start order; a post-state read joins only
	// flights numbered after its forward returned.
	seq uint64
}

type flight struct {
	done chan struct{}
	// seq, project, epoch and clean are the flight's start stamp; they
	// never change after the flight is published.
	seq     uint64
	project string
	epoch   uint64
	clean   bool
	// val, present and err are the leader's result, readable once done
	// is closed.
	val     ocl.Value
	present bool
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// started returns the number of the last flight started so far.
func (g *flightGroup) started() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seq
}

// acquire returns the flight a read of key for project waits on. With
// lead false the caller joins: it waits on done and shares the result.
// With lead true the caller must read and then call land. join says the
// caller may join at all (a read request); after is the flight number a
// joinable flight must exceed.
func (g *flightGroup) acquire(key, project string, join bool, after uint64, epochs *writeEpochs) (fl *flight, lead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok && join && fl.seq > after && fl.clean &&
		fl.project == project && epochs.current(project) == fl.epoch {
		return fl, false
	}
	g.seq++
	fl = &flight{done: make(chan struct{}), seq: g.seq, project: project}
	fl.epoch, fl.clean = epochs.stamp(project)
	g.m[key] = fl
	return fl, true
}

// land publishes the leader's result and closes the flight.
func (g *flightGroup) land(key string, fl *flight, val ocl.Value, present bool, err error) {
	fl.val, fl.present, fl.err = val, present, err
	g.mu.Lock()
	if g.m[key] == fl {
		delete(g.m, key)
	}
	g.mu.Unlock()
	close(fl.done)
}

// lazyFetcher performs the per-path cloud reads of one lazy check,
// accounting fetch counts, provider rounds and time per phase.
type lazyFetcher struct {
	m       *Monitor
	reqCtx  *RequestContext
	project string
	// pk is the URI-param part of cache and default flight keys; empty
	// when neither needs it.
	pk string
	// join: the request is a read and may join other requests' flights.
	join bool
	// fwdSeq is the flight number current when the forward returned;
	// post-state reads join only later flights.
	fwdSeq uint64
	// deferred: the post phase runs on the async post workers and shares
	// no read.
	deferred bool

	// wave is the path list the next pre-state wave draws from: the
	// clause under evaluation (PreClause.Paths) or the top-up's paths.
	wave []string
	// parked holds wave members whose read failed and that evaluation has
	// not asked for yet; fetchPre hands each error out once.
	parked []waveRead
	// wg joins a wave's helper reads.
	wg sync.WaitGroup

	degraded bool
	fetched  int
	rounds   int
	preDur   time.Duration
	postDur  time.Duration
}

// waveRead is one member of a pre-state wave. Each member is written by
// exactly one goroutine and read by the request goroutine after the join.
type waveRead struct {
	path    string
	val     ocl.Value
	present bool
	err     error
	// missed: the read went past the cache (led or joined a flight);
	// issued: it led the flight, i.e. called the provider itself.
	missed, issued bool
}

// fetchPre resolves a pre-state path evaluation asked for. A path whose
// wave read failed earlier returns that failure now, once; any other path
// starts a wave over f.wave. A failure then gets — under the Degrade
// policy — a stale cache entry within the degrade window.
func (f *lazyFetcher) fetchPre(env *lazyEnv, path string) error {
	var err error
	if i := f.parkedAt(path); i >= 0 {
		err = f.parked[i].err
		f.parked = slices.Delete(f.parked, i, i+1)
	} else {
		err = f.runWave(env, path)
	}
	if err == nil {
		return nil
	}
	m := f.m
	if m.failPolicy == Degrade && m.cache != nil {
		if v, present, ok := m.cache.getStale(path, f.reqCtx.Token, f.pk, f.project, m.degradeTTL); ok {
			env.set(path, v, present)
			f.degraded = true
			return nil
		}
	}
	return err
}

// runWave reads path together with every path of f.wave that is neither
// fetched nor parked: one provider round instead of one per path. The
// demanded path's read runs on the request goroutine, the others on
// parked reader goroutines (startRead). Results reach env (and through it
// the slot frame) only after the join, on the request goroutine, so
// neither needs a lock. The demanded path's error is returned; other
// failed members are parked until evaluation asks for them, so a failure
// on a path the verdict never needs cannot change it.
func (f *lazyFetcher) runWave(env *lazyEnv, path string) error {
	reads := make([]waveRead, 1, 1+len(f.wave))
	reads[0].path = path
	for _, p := range f.wave {
		if p != path && !env.fetched(p) && f.parkedAt(p) < 0 {
			reads = append(reads, waveRead{path: p})
		}
	}
	t0 := time.Now()
	f.wg.Add(len(reads) - 1)
	for i := 1; i < len(reads); i++ {
		startRead(waveTask{f: f, r: &reads[i]})
	}
	f.read(&reads[0])
	f.wg.Wait()
	f.preDur += time.Since(t0)
	missed := false
	for i := range reads {
		r := &reads[i]
		missed = missed || r.missed
		if r.issued {
			f.fetched++
		}
		switch {
		case r.err == nil:
			env.set(r.path, r.val, r.present)
		case i > 0:
			f.parked = append(f.parked, *r)
		}
	}
	if missed {
		f.rounds++
	}
	return reads[0].err
}

// waveTask is one helper member of a wave, handed to a reader goroutine.
type waveTask struct {
	f *lazyFetcher
	r *waveRead
}

// run reads the member and releases its reader before the wave's join
// can return, so the next wave finds the reader counted idle.
func (t waveTask) run() {
	t.f.read(t.r)
	readersBusy.Add(-1)
	t.f.wg.Done()
}

// Wave members run on a process-wide pool of reader goroutines. A reader
// that finishes a task parks on waveReaders, an unbuffered hand-off, so
// it holds no task — and keeps no Monitor alive — while idle. A reader
// keeps the stack it grew through the HTTP client, which a fresh
// goroutine per member would grow again on every read. Like sync.Pool,
// the pool is shared by every Monitor in the process; it has no cap and
// no idle timeout, because it never holds more readers than were once
// busy at the same time.
//
// readersBusy counts tasks handed out and not yet finished, readersTotal
// the readers started. A task that finds busy ≤ total has a reader that
// is idle or about to park, so the blocking send returns promptly;
// otherwise a new reader runs it.
var (
	waveReaders  = make(chan waveTask)
	readersBusy  atomic.Int64
	readersTotal atomic.Int64
)

// startRead runs t on an idle reader, or on a new one when none is idle;
// the new reader parks once t is done.
func startRead(t waveTask) {
	if readersBusy.Add(1) <= readersTotal.Load() {
		waveReaders <- t
		return
	}
	readersTotal.Add(1)
	go readLoop(t)
}

func readLoop(t waveTask) {
	t.run()
	for t := range waveReaders {
		t.run()
	}
}

// read is one wave member: cache first, then a shared provider read. The
// flight leader is the only writer to the cache and stores under the
// write epoch stamped before its read began, so neither a waiter nor a
// read that overlapped a write can store a value a later request would
// wrongly trust.
func (f *lazyFetcher) read(r *waveRead) {
	m := f.m
	if m.cache != nil {
		var hit bool
		if r.val, r.present, hit = m.cache.get(r.path, f.reqCtx.Token, f.pk, f.project); hit {
			return
		}
	}
	r.missed = true
	var fl *flight
	fl, r.issued = f.share(r.path, 0, &m.coalescedPre)
	r.val, r.present, r.err = fl.val, fl.present, fl.err
	if r.issued && r.err == nil && m.cache != nil {
		m.cache.put(r.path, f.reqCtx.Token, f.pk, f.project, r.val, r.present, fl.epoch)
	}
}

// share reads path through the flight group, joining a flight numbered
// after after when the join rule allows (counted in joined), and returns
// the landed flight; issued reports that this request led it. The key is
// the provider's ReadKey, or the cache key without one.
func (f *lazyFetcher) share(path string, after uint64, joined *obs.Counter) (fl *flight, issued bool) {
	m := f.m
	var key string
	if m.readKeys != nil {
		key = m.readKeys.ReadKey(f.reqCtx, path)
	} else {
		key = cacheKey(path, f.reqCtx.Token, f.pk)
	}
	fl, lead := m.flights.acquire(key, f.project, f.join, after, &m.epochs)
	if !lead {
		<-fl.done
		joined.Inc()
		return fl, false
	}
	v, present, err := f.snapshot(path)
	m.flights.land(key, fl, v, present, err)
	return fl, true
}

// snapshot reads one path from the provider.
func (f *lazyFetcher) snapshot(path string) (ocl.Value, bool, error) {
	snap, err := f.m.provider.Snapshot(f.reqCtx, []string{path})
	if err != nil {
		return ocl.Value{}, false, err
	}
	v, ok := snap[path]
	return v, ok, nil
}

// parkedAt returns the index of path's unread wave failure, or -1.
func (f *lazyFetcher) parkedAt(path string) int {
	for i := range f.parked {
		if f.parked[i].path == path {
			return i
		}
	}
	return -1
}

// fetchPost resolves one post-state path from the cloud, never from the
// cache: the post-condition verifies this request's own effect. A read
// request may join a flight that started after its forward returned (and
// that the join rule allows); a read that started before the forward
// would compare against stale state. A deferred post check reads live
// and publishes no flight (see flightGroup).
func (f *lazyFetcher) fetchPost(env *lazyEnv, path string) error {
	t0 := time.Now()
	f.rounds++
	var v ocl.Value
	var present bool
	var err error
	if f.deferred {
		f.fetched++
		v, present, err = f.snapshot(path)
	} else {
		fl, issued := f.share(path, f.fwdSeq, &f.m.coalescedPost)
		if issued {
			f.fetched++
		}
		v, present, err = fl.val, fl.present, fl.err
	}
	f.postDur += time.Since(t0)
	if err != nil {
		return err
	}
	env.set(path, v, present)
	return nil
}

// evalProgram runs a clause's closure-chain program, fetching a state
// path the moment a slot demand surfaces. The loop terminates because
// every successful fetch fills its slot (via the env's slotSet mirror),
// and a filled slot cannot demand again. Fetch failures come back wrapped
// in fetchError; all other errors are genuine evaluation errors.
func evalProgram(prog *contract.Program, fr *contract.Frame, fetch func(*contract.Demand) error) (ocl.Value, error) {
	for {
		val, err := prog.Run(fr)
		if err == nil {
			return val, nil
		}
		var d *contract.Demand
		if !errors.As(err, &d) {
			return ocl.Value{}, err
		}
		if fr.Filled(d) {
			// A fetch that does not fill its slot would loop forever; fail
			// loudly instead.
			return ocl.Value{}, fmt.Errorf("monitor: demand loop stuck on path %s", d.Path)
		}
		if ferr := fetch(d); ferr != nil {
			return ocl.Value{}, &fetchError{err: ferr}
		}
	}
}

// boolValue reports (isBool, value) for a tri-state result.
func boolValue(v ocl.Value) (bool, bool) {
	return v.Kind == ocl.KindBool, v.Kind == ocl.KindBool && v.Bool
}

// Pruning kinds of the cloudmon_facts_pruned_total metric.
const (
	factsPrunedPreClause  = "pre-clause"  // disjunct assigned a static value
	factsPrunedPreSibling = "pre-sibling" // disjunct decided by a witness element
	factsPrunedPostClause = "post-clause" // implication statically vacuous
)

// witnessSkip tries to decide disjunct i through an armed exclusion: a
// sibling already observed definitely true whose elements refute one of
// i's. Only a definite-false observation of the witness element licenses
// the skip — the prover is idealized (facts.go), so the observation is
// the soundness guard. Every other outcome (true, undefined, non-boolean,
// evaluation or fetch error) falls back to full evaluation, which
// reproduces no-facts evaluation exactly: the witness's fetched values
// are shared state, and fetchPre retries failed paths on re-demand.
func (m *Monitor) witnessSkip(facts *contract.Facts, comp *contract.Compiled, fr *contract.Frame, i int, anteVals []ocl.Value, demand func(*contract.Demand) error, v *Verdict) (ocl.Value, bool) {
	for j, ex := range facts.Exclusions[i] {
		if isBool, b := boolValue(anteVals[ex.Provider]); !isBool || !b {
			continue
		}
		fr.BeginClause()
		wval, err := evalProgram(comp.WitnessProgram(i, j), fr, demand)
		v.DemandedPaths += fr.TakeDemands()
		if err == nil {
			if isBool, b := boolValue(wval); isBool && !b {
				v.FactsSkipped++
				m.factsPruned.Add(factsPrunedPreSibling, 1)
				return ocl.BoolVal(false), true
			}
		}
		// Per request only the first armed exclusion is tried: its witness
		// observation already paid the fetches, and after a non-false
		// observation the full evaluation reuses them anyway.
		return ocl.Value{}, false
	}
	return ocl.Value{}, false
}

// check runs the monitoring workflow for a matched request and returns the
// verdict plus the backend response (nil when not forwarded). It reaches
// the verdict ocl.Eval would reach over the full pre- and post-state (same
// outcome, failing clause and SecReq attributions — see
// differential_test.go) while fetching only the state paths the verdict
// needs, and evaluates each clause through its compiled program
// (contract/compile.go) over a pooled slot frame.
//
// Pre-check: every disjunct is evaluated (coverage attribution needs each
// case's truth, Section IV.C) in plan order, but demand-driven — a failed
// source invariant never fetches the guard's paths, and disjuncts sharing
// paths pay once. Post-check: implications whose antecedent was false in
// the pre-state are skipped outright; active consequents re-fetch only
// paths inside the transitions' effect frame and reuse the pre-state
// snapshot for untouched paths (disable with Config.NoPostReuse).
//
// The third return value is non-nil only under PostAsync: the pre phase
// and the forward are complete, the verdict is deferred, and the capture
// carries everything postVerify needs to finish it off the response path.
func (m *Monitor) check(r *http.Request, cr *compiledRoute, params map[string]string, trace *obs.Trace) (Verdict, *BackendResponse, *postCapture) {
	start := time.Now()
	c := cr.contract
	plan := cr.plan
	reqCtx := &RequestContext{
		Method:   c.Trigger.Method,
		Resource: c.Trigger.Resource,
		Params:   params,
		Token:    r.Header.Get("X-Auth-Token"),
		Phase:    PhasePre,
	}
	v := Verdict{Trigger: c.Trigger, SecReqs: c.SecReqs, ContractDigest: cr.digest}
	f := &lazyFetcher{
		m:       m,
		reqCtx:  reqCtx,
		project: params["project_id"],
		join:    !mutates(r.Method),
	}
	if m.cache != nil || m.readKeys == nil {
		f.pk = paramsCacheKey(params)
	}
	var preEvalDur, postEvalDur time.Duration
	finish := func(outcome Outcome, detail string) Verdict {
		v.Outcome = outcome
		v.Detail = detail
		v.Elapsed = time.Since(start)
		v.FetchedPaths = f.fetched
		v.FetchRounds = f.rounds
		switch outcome {
		case Blocked, Rejected, ViolationForbiddenAccepted, ViolationAllowedRejected:
			v.FailingClause = c.Pre.String()
		case ViolationPostcondition:
			v.FailingClause = c.Post.String()
		}
		// Fetch time accumulates into the snapshot stages; the evaluation
		// stages get the remainder of each interleaved phase.
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = preEvalDur
		trace[obs.StagePostSnapshot] = f.postDur
		trace[obs.StagePostEval] = postEvalDur
		return v
	}
	// snapshotFailed runs the pre-forward fail-policy branches shared by
	// the pre-check and the pre-state top-up (the Degrade rescue already
	// ran per path inside fetchPre).
	snapshotFailed := func(err error) (Verdict, *BackendResponse, *postCapture) {
		if m.failPolicy == FailOpen {
			resp, ferr := m.forwardRequest(r, cr, params, trace)
			if ferr != nil {
				return finish(Error, fmt.Sprintf(
					"pre-state snapshot: %v; forward to cloud: %v", err, ferr)), nil, nil
			}
			v.Forwarded = true
			v.BackendStatus = resp.StatusCode
			return finish(Unverified, fmt.Sprintf("pre-state snapshot failed (fail-open): %v", err)), resp, nil
		}
		return finish(Error, fmt.Sprintf("pre-state snapshot: %v", err)), nil, nil
	}

	// Pre phase: evaluate every disjunct, cheapest-planned first. The
	// tri-state value is kept per case: the post-check derives each
	// implication's antecedent from it without re-reading the pre-state.
	// With facts on, a statically decided disjunct is assigned its value
	// without evaluation, and a disjunct with an armed exclusion (a
	// sibling already observed definitely true) is decided by its witness
	// element alone when that witness is observed definitely false — every
	// other observation falls back to full evaluation, reproducing
	// no-facts evaluation exactly.
	preStart := time.Now()
	facts := plan.Facts
	useFacts := !m.noFacts && facts != nil
	anteVals := make([]ocl.Value, len(c.Cases))
	// A pooled slot frame mirrors the env (slotSet keeps them in
	// lockstep) and the clause programs run over it.
	pre := newLazyEnv()
	comp := plan.Compiled
	fr := comp.NewFrame()
	defer comp.Release(fr)
	pre.slotSet = fr.SetCur
	demandPre := func(d *contract.Demand) error { return f.fetchPre(pre, d.Path) }
	// debugRecheck re-derives a fact-decided value the slow way
	// (FactsDebug): it reads the clause's paths and evaluates the original
	// disjunct with ocl.Eval. A failed read or a different value counts as
	// a mismatch; an unsound fact also surfaces as a verdict divergence in
	// the differential suites.
	debugRecheck := func(cl *contract.PreClause, got ocl.Value) {
		if !m.factsDebug {
			return
		}
		for _, p := range cl.Paths {
			if pre.fetched(p) {
				continue
			}
			if err := f.fetchPre(pre, p); err != nil {
				m.factsMismatch.Inc()
				return
			}
		}
		full, err := ocl.Eval(c.Cases[cl.Index].Pre, ocl.Context{Cur: pre.vals})
		if err != nil || !full.Equal(got) {
			m.factsMismatch.Inc()
		}
	}
	for ci := range plan.Pre {
		cl := &plan.Pre[ci]
		i := cl.Index
		// The clause's first unfetched demand — witness, full evaluation
		// or debug re-check — reads all its paths in one wave.
		f.wave = cl.Paths
		if useFacts {
			if s := facts.Pre[i].Static; s != nil {
				anteVals[i] = *s
				v.FactsSkipped++
				m.factsPruned.Add(factsPrunedPreClause, 1)
				debugRecheck(cl, *s)
				continue
			}
			if val, ok := m.witnessSkip(facts, comp, fr, i, anteVals, demandPre, &v); ok {
				anteVals[i] = val
				debugRecheck(cl, val)
				continue
			}
		}
		// The program was compiled from the folded form, which is value-,
		// error- and demand-equivalent to the original (facts.go) — one
		// program serves facts-on and facts-off.
		fr.BeginClause()
		val, err := evalProgram(comp.PreProgram(i), fr, demandPre)
		v.DemandedPaths += fr.TakeDemands()
		if err != nil {
			preEvalDur = time.Since(preStart) - f.preDur
			var fe *fetchError
			if errors.As(err, &fe) {
				return snapshotFailed(fe.err)
			}
			return finish(Error, fmt.Sprintf("pre-condition evaluation: %v", err)), nil, nil
		}
		anteVals[i] = val
	}
	preEvalDur = time.Since(preStart) - f.preDur
	v.DegradedPre = f.degraded
	v.PreSnapshot = pre.vals

	// Coverage attribution in model order.
	preOK := false
	var matched, matchedTrans []string
	seen := make(map[string]bool)
	for i := range c.Cases {
		if isBool, b := boolValue(anteVals[i]); !isBool || !b {
			continue
		}
		preOK = true
		cs := &c.Cases[i]
		matchedTrans = append(matchedTrans,
			cs.Transition.From+"->"+cs.Transition.To+" on "+cs.Transition.Trigger.String())
		for _, s := range cs.Transition.SecReqs {
			if !seen[s] {
				seen[s] = true
				matched = append(matched, s)
			}
		}
	}
	sort.Strings(matched)
	v.PreOK = preOK
	v.MatchedSecReqs = matched
	v.MatchedTransitions = matchedTrans

	if !preOK && m.mode == Enforce {
		return finish(Blocked, "pre-condition failed; request not forwarded"), nil, nil
	}

	// Pre-state top-up: pre-context paths of active consequents are
	// unobservable once the request is forwarded, so capture any the
	// disjunct evaluation did not already touch, all in one wave. An
	// implication whose antecedent is definitely false is skipped
	// entirely — its consequent is never evaluated, so its old values are
	// never read.
	if preOK && m.level == CheckFull {
		topStart := time.Now()
		preFetchBefore := f.preDur
		var top []string
		for _, pc := range plan.Post {
			if isBool, b := boolValue(anteVals[pc.Index]); isBool && !b {
				continue
			}
			for _, p := range pc.PrePaths {
				if !pre.fetched(p) && !slices.Contains(top, p) {
					top = append(top, p)
				}
			}
		}
		f.wave = top
		for _, p := range top {
			if pre.fetched(p) {
				continue // read by the wave an earlier path started
			}
			if err := f.fetchPre(pre, p); err != nil {
				preEvalDur += time.Since(topStart) - (f.preDur - preFetchBefore)
				return snapshotFailed(err)
			}
		}
		preEvalDur += time.Since(topStart) - (f.preDur - preFetchBefore)
		v.DegradedPre = f.degraded
	}

	// A mutation waits on the async write fence and runs inside its
	// project's write bracket (forwardRequest). The post-state reads
	// below may share only flights that start from here on.
	resp, err := m.forwardRequest(r, cr, params, trace)
	if err != nil {
		return finish(Error, fmt.Sprintf("forward to cloud: %v", err)), nil, nil
	}
	f.fwdSeq = m.flights.started()
	v.Forwarded = true
	v.BackendStatus = resp.StatusCode

	if !preOK {
		// Observe mode with a forbidden request: the cloud must reject it.
		if resp.Succeeded() {
			return finish(ViolationForbiddenAccepted, fmt.Sprintf(
				"contract forbids %s but cloud answered %d", c.Trigger, resp.StatusCode)), resp, nil
		}
		return finish(Rejected, ""), resp, nil
	}

	if !resp.Succeeded() {
		return finish(ViolationAllowedRejected, fmt.Sprintf(
			"contract permits %s but cloud answered %d", c.Trigger, resp.StatusCode)), resp, nil
	}

	if m.level == CheckPreOnly {
		v.PostOK = true
		return finish(OK, ""), resp, nil
	}

	// The post phase runs over a capture of everything the pre phase
	// learned: the demand fetcher with its accounting, the pre-state env,
	// the per-case antecedent values and the accumulated timings.
	// Synchronous mode consumes the capture right here, on the response
	// path, reusing the pooled frame; PostAsync hands it to the worker
	// pool and returns the response immediately.
	cap := &postCapture{
		m:          m,
		cr:         cr,
		reqCtx:     reqCtx,
		v:          v,
		f:          f,
		pre:        pre,
		anteVals:   anteVals,
		resp:       resp,
		start:      start,
		preEvalDur: preEvalDur,
	}
	if m.post == PostAsync {
		// The pooled frame dies with this call (deferred Release): stop
		// mirroring into it before the capture escapes. The worker
		// re-materializes a frame from the env — BeginPost copies
		// nothing, so a rebuilt frame and a turned-around one are
		// indistinguishable. The response-path trace keeps the pre-phase
		// spans; the worker fills in the post spans on its own copy.
		pre.slotSet = nil
		f.deferred = true
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = preEvalDur
		// Pending from this moment — before the response is written — so
		// the write fence and DrainPost account for the capture even while
		// ServeHTTP is still carrying it to the queue.
		m.asyncPost.pending.Add(1)
		return v, resp, cap
	}
	return m.postVerify(cap, trace, fr), resp, nil
}

// postCapture is the deferred-verdict record of one forwarded request:
// everything the post phase needs, captured the moment the forward
// completed. The verdict inside carries the final pre-phase fields
// (coverage, antecedents, fetch accounting); postVerify finishes it.
type postCapture struct {
	m          *Monitor
	cr         *compiledRoute
	reqCtx     *RequestContext
	v          Verdict
	f          *lazyFetcher
	pre        *lazyEnv
	anteVals   []ocl.Value
	resp       *BackendResponse
	start      time.Time
	preEvalDur time.Duration
	// trace is the request's pipeline trace as of response return. The
	// async worker owns this copy and adds the post-phase spans; the
	// response path's own trace array is dead once the handler returns.
	trace obs.Trace
	// returned is when the response went back to the client (PostAsync);
	// detection lag is measured from it.
	returned time.Time
}

// postVerify is the post phase shared verbatim by the synchronous check
// and the async workers. The effect frame is the union of what the active
// transitions may change; post-state reads outside it reuse the pre-state
// snapshot (the forwarded call cannot have moved them). fr is the pre
// phase's pooled frame on the synchronous path; async workers pass nil
// and a fresh frame is rebuilt from the captured env — BeginPost copies
// no state, so the rebuilt frame evaluates identically.
func (m *Monitor) postVerify(cap *postCapture, trace *obs.Trace, fr *contract.Frame) Verdict {
	c := cap.cr.contract
	plan := cap.cr.plan
	reqCtx := cap.reqCtx
	f := cap.f
	pre := cap.pre
	anteVals := cap.anteVals
	v := &cap.v
	facts := plan.Facts
	useFacts := !m.noFacts && facts != nil
	comp := plan.Compiled
	if fr == nil {
		fr = comp.NewFrame()
		defer comp.Release(fr)
	}
	var postEvalDur time.Duration
	finish := func(outcome Outcome, detail string) Verdict {
		v.Outcome = outcome
		v.Detail = detail
		v.Elapsed = time.Since(cap.start)
		v.FetchedPaths = f.fetched
		v.FetchRounds = f.rounds
		if outcome == ViolationPostcondition {
			v.FailingClause = c.Post.String()
		}
		trace[obs.StagePreSnapshot] = f.preDur
		trace[obs.StagePreEval] = cap.preEvalDur
		trace[obs.StagePostSnapshot] = f.postDur
		trace[obs.StagePostEval] = postEvalDur
		return *v
	}
	reqCtx.Phase = PhasePost
	postStart := time.Now()
	var frame map[string]bool
	if !m.noPostReuse {
		frame = make(map[string]bool)
		for _, pc := range plan.Post {
			if isBool, b := boolValue(anteVals[pc.Index]); isBool && !b {
				continue
			}
			for _, p := range pc.Touched {
				frame[p] = true
			}
		}
	}
	// Turn the frame around: the current bank now describes the
	// post-state (filled on demand below) and the captured pre-state
	// becomes the pre bank. The pre env stops mirroring into the frame —
	// nothing writes it after the forward.
	post := newLazyEnv()
	fr.BeginPost()
	pre.slotSet = nil
	post.slotSet = fr.SetCur
	for path := range pre.have {
		val, present := pre.value(path)
		fr.SetPre(path, val, present)
	}
	demandPost := func(d *contract.Demand) error {
		if d.Pre {
			// Defense against a plan bug: every pre-context path of an
			// active consequent was topped up before the forward.
			return fmt.Errorf("monitor: pre-state path %s demanded after forward", d.Path)
		}
		if frame != nil && !frame[d.Path] && pre.fetched(d.Path) {
			val, present := pre.value(d.Path)
			post.set(d.Path, val, present)
			v.ReusedPaths++
			return nil
		}
		return f.fetchPost(post, d.Path)
	}
	sawUndef := false
	postOK := true
	for _, pc := range plan.Post {
		ante := anteVals[pc.Index]
		anteBool, anteTrue := boolValue(ante)
		if anteBool && !anteTrue {
			if useFacts && facts.Post[pc.Index].Vacuous() {
				// The skip is ordinary Kleene vacuity, but the antecedent
				// was decided statically — attribute the avoided clause.
				v.FactsSkipped++
				m.factsPruned.Add(factsPrunedPostClause, 1)
			}
			continue // antecedent false: implication holds, nothing to read
		}
		if !anteBool && ante.Kind != ocl.KindUndefined {
			// ocl.Eval feeds the antecedent through its boolean
			// connective, which rejects non-boolean kinds.
			postEvalDur = time.Since(postStart) - f.postDur
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v",
				&ocl.EvalError{Expr: c.Post, Message: "boolean operator applied to " + ante.Kind.String()}))
		}
		fr.BeginClause()
		consVal, err := evalProgram(comp.PostProgram(pc.Index), fr, demandPost)
		v.DemandedPaths += fr.TakeDemands()
		if err != nil {
			postEvalDur = time.Since(postStart) - f.postDur
			var fe *fetchError
			if errors.As(err, &fe) {
				if m.failPolicy == FailOpen || m.failPolicy == Degrade {
					return finish(Unverified, fmt.Sprintf(
						"post-state snapshot failed (%s): %v", m.failPolicy, fe.err))
				}
				return finish(Error, fmt.Sprintf("post-state snapshot: %v", fe.err))
			}
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v", err))
		}
		consBool, consTrue := boolValue(consVal)
		if !consBool && consVal.Kind != ocl.KindUndefined {
			postEvalDur = time.Since(postStart) - f.postDur
			return finish(Error, fmt.Sprintf("post-condition evaluation: %v",
				&ocl.EvalError{Expr: c.Post, Message: "boolean operator applied to " + consVal.Kind.String()}))
		}
		// Kleene implication given the antecedent is true or undefined:
		//   true  => X  is X;  undef => X  is true only when X is true.
		switch {
		case consBool && consTrue:
			// implication true
		case anteTrue && consBool: // consequent definitely false
			postOK = false
		default:
			sawUndef = true
		}
		if !postOK {
			break // ocl.Eval's conjunction short-circuits on definite false
		}
	}
	postEvalDur = time.Since(postStart) - f.postDur
	if sawUndef {
		// EvalBool maps an Undefined post-condition to false.
		postOK = false
	}
	v.PostSnapshot = post.vals
	v.PostOK = postOK
	if !postOK {
		return finish(ViolationPostcondition, fmt.Sprintf(
			"post-condition of %s failed: %s", c.Trigger, c.Post))
	}
	return finish(OK, "")
}
