package monitor

import (
	"sort"
	"strings"
	"sync"
	"time"

	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// CacheStats are the pre-state cache's hit/invalidation counters, exported
// on /metrics.
type CacheStats struct {
	// Hits and Misses count fresh-read lookups (per path).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// StaleHits counts degrade-path lookups served past the TTL.
	StaleHits uint64 `json:"stale_hits"`
	// Invalidations counts forwarded writes and fleet invalidations, each
	// of which moved its project's write epoch past every cached entry.
	Invalidations uint64 `json:"invalidations"`
}

// snapshotCache is the optional short-TTL pre-state read cache. Entries are
// keyed by (navigation path, requester token, URI params) and carry the
// project's write epoch at fetch time (the monitor's writeEpochs): any
// forwarded write for the project moves the epoch as it starts and as it
// ends, invalidating every cached value for it in O(1). The TTL
// additionally bounds how long a write that bypassed the monitor can stay
// invisible.
//
// Only the pre-state lookup consults the cache; post-state snapshots always
// read the cloud, because the post-condition verifies the request's own
// effect.
type snapshotCache struct {
	ttl    time.Duration
	now    func() time.Time
	shards [cacheShards]cacheShard
	// epochs is the monitor's write clock; entries of an older epoch are
	// stale.
	epochs *writeEpochs

	// Lock-free observability counters (see CacheStats).
	hits          obs.Counter
	misses        obs.Counter
	staleHits     obs.Counter
	invalidations obs.Counter
}

// stats snapshots the counters.
func (c *snapshotCache) stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		StaleHits:     c.staleHits.Value(),
		Invalidations: c.invalidations.Value(),
	}
}

// cacheShards is the number of entry-map shards (power of two).
const cacheShards = 16

// cacheShardLimit triggers an expired-entry sweep when a shard grows past
// it, bounding memory on long runs with many distinct tokens.
const cacheShardLimit = 4096

type cacheShard struct {
	mu      sync.RWMutex
	entries map[string]cacheEntry
}

type cacheEntry struct {
	val     ocl.Value
	present bool
	fetched time.Time
	expires time.Time
	gen     uint64
}

func newSnapshotCache(ttl time.Duration, epochs *writeEpochs) *snapshotCache {
	c := &snapshotCache{ttl: ttl, now: time.Now, epochs: epochs}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]cacheEntry)
	}
	return c
}

// cacheKey builds the entry key. The token partitions requester-dependent
// paths (user.id.groups); the params partition resource-dependent ones.
func cacheKey(path, token, paramsKey string) string {
	return path + "\x1f" + token + "\x1f" + paramsKey
}

// paramsCacheKey flattens the URI captures into a stable string.
func paramsCacheKey(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(params[k])
		sb.WriteByte(';')
	}
	return sb.String()
}

func (c *snapshotCache) shardFor(key string) *cacheShard {
	// FNV-1a over the key.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%cacheShards]
}

// get returns the cached value for (path, token, params) if fresh under
// the project's current write epoch. The second return distinguishes "path
// was absent from the provider snapshot" (ok, present=false) from a miss.
func (c *snapshotCache) get(path, token, paramsKey, project string) (ocl.Value, bool, bool) {
	key := cacheKey(path, token, paramsKey)
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok || c.now().After(e.expires) || e.gen != c.epochs.current(project) {
		c.misses.Inc()
		return ocl.Value{}, false, false
	}
	c.hits.Inc()
	return e.val, e.present, true
}

// put stores a fetched value under the write epoch captured before the
// fetch started, so a write that overlaps the fetch invalidates it.
func (c *snapshotCache) put(path, token, paramsKey, project string, val ocl.Value, present bool, gen uint64) {
	key := cacheKey(path, token, paramsKey)
	sh := c.shardFor(key)
	now := c.now()
	sh.mu.Lock()
	if len(sh.entries) >= cacheShardLimit {
		for k, e := range sh.entries {
			if now.After(e.expires) {
				delete(sh.entries, k)
			}
		}
	}
	sh.entries[key] = cacheEntry{val: val, present: present, fetched: now, expires: now.Add(c.ttl), gen: gen}
	sh.mu.Unlock()
}

// getStale is the degrade-path lookup: it accepts entries past the normal
// TTL as long as they were fetched within maxAge and belong to the
// project's current write epoch. Normal (non-degraded) reads must use get.
func (c *snapshotCache) getStale(path, token, paramsKey, project string, maxAge time.Duration) (ocl.Value, bool, bool) {
	key := cacheKey(path, token, paramsKey)
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok || c.now().Sub(e.fetched) > maxAge || e.gen != c.epochs.current(project) {
		return ocl.Value{}, false, false
	}
	c.staleHits.Inc()
	return e.val, e.present, true
}
