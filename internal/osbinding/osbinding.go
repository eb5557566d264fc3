// Package osbinding binds the cloud monitor to the (simulated) OpenStack
// cloud: it implements monitor.StateProvider by resolving the OCL
// navigation paths of the paper's models to live REST queries, and derives
// the monitor's proxy routes from the generated contracts.
//
// Path bindings (Section IV.B semantics — each value is observed through
// the cloud's own API, so "the stateless nature of REST remains
// uncompromised"):
//
//	project.id        GET  /identity/v3/projects/{project_id}
//	                  200 -> the project id; otherwise OclUndefined
//	project.volumes   GET  /volume/v3/{project_id}/volumes
//	                  200 -> collection of volume ids
//	quota_sets.volume GET  /volume/v3/{project_id}/quota_sets
//	                  200 -> the volume quota integer
//	volume.status     GET  /volume/v3/{project_id}/volumes/{volume_id}
//	                  200 -> the status string; otherwise OclUndefined
//	user.id.groups    GET  /identity/v3/auth/tokens (X-Subject-Token =
//	                  requester token) -> the requester's project roles
//
// The provider authenticates as a dedicated monitoring service account
// with read access, exactly like a real monitoring deployment would.
package osbinding

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"cloudmon/internal/contract"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
	"cloudmon/internal/osclient"
	"cloudmon/internal/uml"
)

// ServiceAccount is the monitor's own identity on the cloud.
type ServiceAccount struct {
	User     string
	Password string
	// ProjectID scopes the account's token.
	ProjectID string
}

// Provider implements monitor.StateProvider over the cloud's REST APIs.
type Provider struct {
	client  *osclient.Client
	account ServiceAccount

	// Retry configures the backoff loop every cloud read runs under. The
	// zero value selects the defaults (3 attempts, 10ms base, 4x growth,
	// ±50% jitter); set MaxAttempts to 1 to disable retries.
	Retry osclient.RetryPolicy

	// Breaker, when non-nil, sheds snapshot reads while the cloud is down
	// instead of queueing retries against it; shed reads surface as
	// snapshot errors, which the monitor resolves through its fail
	// policy.
	Breaker *osclient.Breaker

	mu sync.Mutex
	// token caches the service-account token; refreshed on 401.
	token string

	// Lock-free observability counters over the retry loop (exported via
	// RegisterMetrics).
	attempts      obs.Counter
	retries       obs.Counter
	authRefreshes obs.Counter
	gets          obs.Counter
	listReuses    obs.Counter

	// lists memoises the last decoded body per list URL path (which
	// carries the project id): string -> *listMemo. See resolveList.
	lists sync.Map
}

// ProviderStats snapshots the retry-loop and read counters.
type ProviderStats struct {
	// Attempts counts cloud-read attempts, including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts attempts beyond the first for an operation.
	Retries uint64 `json:"retries"`
	// AuthRefreshes counts 401-triggered token invalidations.
	AuthRefreshes uint64 `json:"auth_refreshes"`
	// Gets counts state-path resolutions — one per navigation path read,
	// each one REST GET against the cloud (before retries). The
	// monitor's fetch economy is measured against this.
	Gets uint64 `json:"gets"`
	// ListReuses counts list reads (project.volumes, project.servers)
	// whose body was byte-identical to the last one decoded for the same
	// list, so the memoised collection was returned without decoding.
	// Every one of them is also counted in Gets.
	ListReuses uint64 `json:"list_reuses"`
}

// Stats snapshots the provider's counters.
func (p *Provider) Stats() ProviderStats {
	return ProviderStats{
		Attempts:      p.attempts.Value(),
		Retries:       p.retries.Value(),
		AuthRefreshes: p.authRefreshes.Value(),
		Gets:          p.gets.Value(),
		ListReuses:    p.listReuses.Value(),
	}
}

// RegisterMetrics exposes the provider's retry and breaker state on the
// registry. Breaker state is sampled at scrape time (gauge: 0 closed,
// 1 half-open, 2 open).
func (p *Provider) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(w *obs.MetricsWriter) {
		w.Counter("cloudmon_snapshot_attempts_total",
			"Cloud read attempts by the snapshot provider, including retries.",
			float64(p.attempts.Value()))
		w.Counter("cloudmon_snapshot_retries_total",
			"Snapshot read attempts beyond the first for an operation.",
			float64(p.retries.Value()))
		w.Counter("cloudmon_snapshot_auth_refresh_total",
			"Service-token refreshes triggered by 401 responses.",
			float64(p.authRefreshes.Value()))
		w.Counter("cloudmon_cloud_gets_total",
			"State-path reads issued against the cloud (one REST GET each, before retries).",
			float64(p.gets.Value()))
		w.Counter("cloudmon_list_decode_reused_total",
			"Cloud list reads whose body matched the last one decoded, so the memoised collection was reused (each also counts as a cloud GET).",
			float64(p.listReuses.Value()))
		if p.Breaker != nil {
			var state float64
			switch p.Breaker.State() {
			case osclient.StateHalfOpen:
				state = 1
			case osclient.StateOpen:
				state = 2
			}
			w.Gauge("cloudmon_breaker_state",
				"Snapshot circuit breaker state: 0 closed, 1 half-open, 2 open.",
				state)
			w.Counter("cloudmon_breaker_shed_total",
				"Snapshot reads shed while the breaker was open.",
				float64(p.Breaker.Shed()))
		}
	})
}

var (
	_ monitor.StateProvider = (*Provider)(nil)
	_ monitor.ReadKeyer     = (*Provider)(nil)
)

// NewProvider returns a provider for the cloud at baseURL, authenticating
// with the service account on demand.
func NewProvider(baseURL string, account ServiceAccount) *Provider {
	return NewProviderWithClient(baseURL, account, nil)
}

// NewProviderWithClient is NewProvider with an explicit HTTP client
// (httptest servers inject their client here).
func NewProviderWithClient(baseURL string, account ServiceAccount, httpClient *http.Client) *Provider {
	c := osclient.New(baseURL)
	c.HTTPClient = httpClient
	return &Provider{
		client:  c,
		account: account,
	}
}

// authedClient returns a client carrying a valid service token,
// re-authenticating if needed.
func (p *Provider) authedClient() (*osclient.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.token == "" {
		tok, err := p.client.Authenticate(p.account.User, p.account.Password, p.account.ProjectID)
		if err != nil {
			return nil, fmt.Errorf("osbinding: service-account auth: %w", err)
		}
		p.token = tok
	}
	return p.client.WithToken(p.token), nil
}

// invalidateToken drops the cached token after a 401.
func (p *Provider) invalidateToken() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.token = ""
}

// withRetry runs fn — a read against the cloud — with an authenticated
// client under the provider's retry policy. All current callers are GET
// resolvers, hence idempotent.
func (p *Provider) withRetry(fn func(c *osclient.Client) error) error {
	return p.retryDo(true, fn)
}

// retryDo is the provider's retry loop: exponential backoff with jitter,
// a fresh per-attempt context deadline, an optional wall-clock budget,
// and re-authentication whenever the cloud answers 401 (expired service
// token — a pre-application failure, so re-sending is always safe).
//
// idempotent declares whether fn may be re-sent after a failure that
// could already have been applied. Non-idempotent operations (POST/PUT
// writes) are retried only on a 401 response: the cloud rejected the
// token before acting on the body, so the first attempt provably had no
// effect. A transport error or 5xx on a write is NOT retried — the write
// may have landed, and re-sending it is the double-apply bug.
func (p *Provider) retryDo(idempotent bool, fn func(c *osclient.Client) error) error {
	pol := p.Retry.WithDefaults()
	var deadline time.Time
	if pol.Budget > 0 {
		deadline = time.Now().Add(pol.Budget)
	}
	for attempt := 1; ; attempt++ {
		if p.Breaker != nil && !p.Breaker.Allow() {
			return fmt.Errorf("osbinding: snapshot shed: %w", osclient.ErrCircuitOpen)
		}
		p.attempts.Inc()
		if attempt > 1 {
			p.retries.Inc()
		}
		c, err := p.authedClient()
		if err == nil {
			if pol.PerAttemptTimeout > 0 {
				cp := *c
				cp.Timeout = pol.PerAttemptTimeout
				c = &cp
			}
			err = fn(c)
		}
		if p.Breaker != nil {
			p.Breaker.Record(!osclient.Infrastructure(err))
		}
		if err == nil {
			return nil
		}
		if osclient.IsStatus(err, http.StatusUnauthorized) {
			p.invalidateToken()
			p.authRefreshes.Inc()
		}
		if !osclient.RetryableFor(err, idempotent) || attempt >= pol.MaxAttempts {
			return err
		}
		sleep := pol.Backoff(attempt, nil)
		if !deadline.IsZero() && time.Now().Add(sleep).After(deadline) {
			return err
		}
		time.Sleep(sleep)
	}
}

// Snapshot implements monitor.StateProvider. Paths are independent REST
// reads, resolved in order. Snapshot is safe for concurrent calls sharing
// one ctx.
func (p *Provider) Snapshot(ctx *monitor.RequestContext, paths []string) (ocl.MapEnv, error) {
	env := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		v, err := p.resolve(ctx, path)
		if err != nil {
			return nil, fmt.Errorf("osbinding: resolve %s: %w", path, err)
		}
		env[path] = v
	}
	return env, nil
}

// ReadKey implements monitor.ReadKeyer: it names the REST read resolve
// issues for path. The service-account reads (project.id, the volume and
// server lists, the volume quota) depend on the project alone, the status
// reads on the project and resource id, user.id.groups on the subject
// token, so requests of different users, or for different volumes of one
// project, share them. A path that resolves without a GET (a missing id,
// an unknown path) is keyed by its own name.
func (p *Provider) ReadKey(ctx *monitor.RequestContext, path string) string {
	pid := ctx.Params["project_id"]
	switch path {
	case "project.id":
		if pid != "" {
			return "GET /identity/v3/projects/" + pid
		}
	case "project.volumes":
		if pid != "" {
			return "GET /volume/v3/" + pid + "/volumes"
		}
	case "project.servers":
		if pid != "" {
			return "GET /compute/v2.1/" + pid + "/servers"
		}
	case "quota_sets.volume":
		if pid != "" {
			return "GET /volume/v3/" + pid + "/quota_sets"
		}
	case "volume.status":
		if vid := ctx.Params["volume_id"]; pid != "" && vid != "" {
			return "GET /volume/v3/" + pid + "/volumes/" + vid
		}
	case "server.status":
		if sid := ctx.Params["server_id"]; pid != "" && sid != "" {
			return "GET /compute/v2.1/" + pid + "/servers/" + sid
		}
	case "user.id.groups":
		if ctx.Token != "" {
			return "GET /identity/v3/auth/tokens X-Subject-Token=" + ctx.Token
		}
	}
	return path
}

// resolve maps one navigation path to a value. Unknown paths and missing
// resources are OclUndefined, never errors — that is how "GET was not 200"
// enters the formulas.
func (p *Provider) resolve(ctx *monitor.RequestContext, path string) (ocl.Value, error) {
	p.gets.Inc()
	switch path {
	case "project.id":
		return p.resolveProjectID(ctx)
	case "project.volumes":
		return p.resolveProjectVolumes(ctx)
	case "project.servers":
		return p.resolveProjectServers(ctx)
	case "quota_sets.volume":
		return p.resolveQuota(ctx)
	case "volume.status":
		return p.resolveVolumeStatus(ctx)
	case "server.status":
		return p.resolveServerStatus(ctx)
	case "user.id.groups":
		return p.resolveUserGroups(ctx)
	default:
		return ocl.Undefined(), nil
	}
}

func (p *Provider) resolveProjectID(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		proj, _, err := c.GetProject(pid)
		if err != nil {
			return err
		}
		out = ocl.StringVal(proj.ID)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveProjectVolumes(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	return p.resolveList("/volume/v3/" + pid + "/volumes")
}

func (p *Provider) resolveProjectServers(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	return p.resolveList("/compute/v2.1/" + pid + "/servers")
}

// listMemo is the last list body decoded for one list URL, with the
// collection it decoded to. Entries are immutable once stored.
type listMemo struct {
	body []byte
	val  ocl.Value
}

// resolveList reads a project's volume or server list and yields the
// collection of its element ids. The GET always goes to the cloud; only
// the decode is memoised. A 2xx body byte-identical to the last one
// decoded for the same URL returns the memoised collection, which is
// shared and read-only: identical bytes decode to identical values, so
// no verdict can tell the difference. A different body is decoded afresh
// and replaces the entry; a 404 evicts it.
func (p *Provider) resolveList(listPath string) (ocl.Value, error) {
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		var body []byte
		if _, err := c.Do(http.MethodGet, listPath, nil, &body, nil); err != nil {
			return err
		}
		if e, ok := p.lists.Load(listPath); ok {
			if m := e.(*listMemo); bytes.Equal(body, m.body) {
				p.listReuses.Inc()
				out = m.val
				return nil
			}
		}
		v, err := decodeIDs(body)
		if err != nil {
			return fmt.Errorf("osbinding: decode %s: %w", listPath, err)
		}
		p.lists.Store(listPath, &listMemo{body: body, val: v})
		out = v
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		p.lists.Delete(listPath)
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

// idList is the part of a volume or server list body the contracts read:
// each element's id. A body carries one of the two arrays.
type idList struct {
	Volumes []idOnly `json:"volumes"`
	Servers []idOnly `json:"servers"`
}

type idOnly struct {
	ID string `json:"id"`
}

// decodeIDs decodes a list body into a collection of element ids. An
// empty body is the empty collection.
func decodeIDs(body []byte) (ocl.Value, error) {
	var l idList
	if len(body) > 0 {
		if err := json.Unmarshal(body, &l); err != nil {
			return ocl.Value{}, err
		}
	}
	elems := l.Volumes
	if elems == nil {
		elems = l.Servers
	}
	ids := make([]ocl.Value, len(elems))
	for i, e := range elems {
		ids[i] = ocl.StringVal(e.ID)
	}
	return ocl.Value{Kind: ocl.KindCollection, Elems: ids}, nil
}

func (p *Provider) resolveServerStatus(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	sid := ctx.Params["server_id"]
	if pid == "" || sid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		s, _, err := c.GetServer(pid, sid)
		if err != nil {
			return err
		}
		out = ocl.StringVal(s.Status)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveQuota(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	if pid == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		q, _, err := c.GetQuota(pid)
		if err != nil {
			return err
		}
		out = ocl.IntVal(q.Volumes)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

func (p *Provider) resolveVolumeStatus(ctx *monitor.RequestContext) (ocl.Value, error) {
	pid := ctx.Params["project_id"]
	vid := ctx.Params["volume_id"]
	if pid == "" || vid == "" {
		// POST on the collection has no volume id; the formula's
		// volume.status conjuncts then evaluate over OclUndefined.
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		v, _, err := c.GetVolume(pid, vid)
		if err != nil {
			return err
		}
		out = ocl.StringVal(v.Status)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

// resolveUserGroups resolves the requester's roles in the project. The
// paper's guards write `user.id.groups='admin'` where 'admin' is the role
// the user's group holds (Table I maps groups to roles); Keystone reports
// those roles in token validation.
func (p *Provider) resolveUserGroups(ctx *monitor.RequestContext) (ocl.Value, error) {
	if ctx.Token == "" {
		return ocl.Undefined(), nil
	}
	var out ocl.Value
	err := p.withRetry(func(c *osclient.Client) error {
		tok, err := c.ValidateToken(ctx.Token)
		if err != nil {
			return err
		}
		out = ocl.StringsVal(tok.Roles...)
		return nil
	})
	if osclient.IsStatus(err, http.StatusNotFound) {
		// Invalid requester token: no roles.
		return ocl.Undefined(), nil
	}
	if err != nil {
		return ocl.Value{}, err
	}
	return out, nil
}

// Routes derives the monitor's proxy routes from the generated contracts:
// the monitor-facing pattern is the model URI (POST uses the parent
// collection, since creation addresses the collection), and the backend
// template is the cloud's cinder URI.
func Routes(set *contract.Set) []monitor.Route {
	routes := make([]monitor.Route, 0, len(set.Contracts))
	for _, c := range set.Contracts {
		pattern := c.URI
		if c.Trigger.Method == uml.POST {
			pattern = parentOf(pattern)
		}
		routes = append(routes, monitor.Route{
			Trigger: c.Trigger,
			Pattern: pattern,
			Backend: backendFor(pattern),
		})
	}
	return routes
}

// parentOf strips the trailing path segment (the item id).
func parentOf(uri string) string {
	idx := strings.LastIndex(uri, "/")
	if idx <= 0 {
		return uri
	}
	return uri[:idx]
}

// backendFor maps a model URI onto the simulated cloud's service APIs:
// paths under a project route to cinder (/volume/v3) by default and to
// nova (/compute/v2.1) when they address the servers subtree.
func backendFor(pattern string) string {
	const prefix = "/projects/"
	if !strings.HasPrefix(pattern, prefix) {
		return pattern
	}
	rest := pattern[len(prefix):]
	if strings.Contains(pattern, "/servers") {
		return "/compute/v2.1/" + rest
	}
	return "/volume/v3/" + rest
}
