package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eventcap/internal/dist"
	"eventcap/internal/obs"
)

// Policy computations are pure functions of (distribution, recharge
// rate, energy params, solver options), yet the experiment sweeps
// recompute them at every sweep point — a K-sweep evaluates ten battery
// capacities against one GreedyFI policy, and `experiments -run all`
// asks for the same Weibull(40,3) policies from half a dozen drivers.
// The process-wide cache below computes each distinct input once and
// shares the result.
//
// Cached results are shared pointers: callers must treat a returned
// *FIResult / *PIResult (including its Policy vector's Prefix slice) as
// immutable. Every consumer in this repository only reads them.
//
// Concurrency: the cache is safe for concurrent use, and concurrent
// requests for the same key share a single computation (the first
// caller computes under a per-entry sync.Once, the rest block on it) —
// important now that sweeps fan out across a worker pool, where all
// points of a sweep may ask for the same policy simultaneously.

// cacheEntry is one memoized computation; once guards the single fill.
type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// policyCache is a keyed, concurrency-safe memo table.
type policyCache[V any] struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry[V]
	hits    atomic.Int64
	misses  atomic.Int64
}

func (c *policyCache[V]) get(key string, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry[V])
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	// Per-cache counters back CacheStats; the obs counters are the
	// process-wide totals snapshotted into run manifests (never reset).
	if ok {
		c.hits.Add(1)
		obs.CachePolicyHits.Inc()
	} else {
		c.misses.Add(1)
		obs.CachePolicyMisses.Inc()
	}
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

func (c *policyCache[V]) reset() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

var (
	greedyCache  policyCache[*FIResult]
	lpCache      policyCache[*FIResult]
	clusterCache policyCache[*PIResult]
)

// CacheStats reports the policy cache's cumulative hits and misses
// across all cached solvers (for tests and perf reporting).
func CacheStats() (hits, misses int64) {
	for _, c := range []*policyCache[*FIResult]{&greedyCache, &lpCache} {
		hits += c.hits.Load()
		misses += c.misses.Load()
	}
	hits += clusterCache.hits.Load()
	misses += clusterCache.misses.Load()
	return hits, misses
}

// ResetPolicyCache drops all memoized policies and zeroes the counters
// (for tests and long-lived processes that change workloads wholesale).
func ResetPolicyCache() {
	greedyCache.reset()
	lpCache.reset()
	clusterCache.reset()
}

// distCacheKey returns the distribution's stable identity, or ok=false
// when the instance cannot be keyed (then callers compute uncached).
func distCacheKey(d dist.Interarrival) (string, bool) {
	if k, ok := d.(dist.Keyed); ok {
		if s := k.CacheKey(); s != "" {
			return s, true
		}
	}
	return "", false
}

// %b formats floats by their exact bit pattern, so keys distinguish
// every distinct float64 input.
func fiKey(solver, dk string, e float64, p Params, extra int) string {
	return fmt.Sprintf("%s|%s|e=%b|d1=%b|d2=%b|x=%d", solver, dk, e, p.Delta1, p.Delta2, extra)
}

// GreedyFICached is GreedyFI behind the policy cache. The returned
// result is shared; treat it as immutable.
func GreedyFICached(d dist.Interarrival, e float64, p Params) (*FIResult, error) {
	dk, ok := distCacheKey(d)
	if !ok {
		return GreedyFI(d, e, p)
	}
	return greedyCache.get(fiKey("greedy", dk, e, p, 0), func() (*FIResult, error) {
		return GreedyFI(d, e, p)
	})
}

// LPFICached is LPFI behind the policy cache. The returned result is
// shared; treat it as immutable.
func LPFICached(d dist.Interarrival, e float64, p Params, maxStates int) (*FIResult, error) {
	dk, ok := distCacheKey(d)
	if !ok {
		return LPFI(d, e, p, maxStates)
	}
	return lpCache.get(fiKey("lp", dk, e, p, maxStates), func() (*FIResult, error) {
		return LPFI(d, e, p, maxStates)
	})
}

// OptimizeClusteringCached is OptimizeClustering behind the policy
// cache. The returned result is shared; treat it as immutable.
func OptimizeClusteringCached(d dist.Interarrival, e float64, p Params, opts ClusteringOptions) (*PIResult, error) {
	dk, ok := distCacheKey(d)
	if !ok {
		return OptimizeClustering(d, e, p, opts)
	}
	return clusterCache.get(clusterKey(dk, e, p, opts), func() (*PIResult, error) {
		return OptimizeClustering(d, e, p, opts)
	})
}

// OptimizeClusteringPairCached returns OptimizeClusteringCached(d, e, p,
// base) and OptimizeClusteringCached(d, e, p, capped), a gap-capped twin
// of base, each stored under its own cache key. When both miss, the two
// searches run on one evaluator (clusteringPair), so the capped search's
// evaluations hit the base's memo. When the base search fails,
// the capped one is not run and capped is nil. The results are shared;
// treat them as immutable.
func OptimizeClusteringPairCached(d dist.Interarrival, e float64, p Params, base, capped ClusteringOptions) (b, c *PIResult, err error) {
	get := func(_ ClusteringOptions, compute func() (*PIResult, error)) (*PIResult, error) {
		return compute()
	}
	if dk, ok := distCacheKey(d); ok {
		get = func(opts ClusteringOptions, compute func() (*PIResult, error)) (*PIResult, error) {
			return clusterCache.get(clusterKey(dk, e, p, opts), compute)
		}
	}
	// A base result from the cache leaves the pair without an evaluator,
	// and the capped search runs on its own.
	pair := &clusteringPair{d: d, e: e, p: p}
	defer pair.publish()
	b, err = get(base, func() (*PIResult, error) { return pair.base(base) })
	if err != nil {
		return nil, nil, err
	}
	c, err = get(capped, func() (*PIResult, error) { return pair.capped(capped) })
	if err != nil {
		return b, nil, err
	}
	return b, c, nil
}

// %b formats floats by their exact bit pattern, as in fiKey.
func clusterKey(dk string, e float64, p Params, opts ClusteringOptions) string {
	return fmt.Sprintf("cluster|%s|e=%b|d1=%b|d2=%b|sl=%d|mg=%d|cp=%d",
		dk, e, p.Delta1, p.Delta2, opts.SearchLimit, opts.MaxGap, opts.CoarsePoints)
}
