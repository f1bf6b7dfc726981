package core

import "sync"

// boundedCache is the small per-database cache the pipeline and the
// data-grounded feedback share for executors and explainers. At the limit
// it evicts one arbitrary entry instead of clearing, so a workload that
// interleaves more databases than the limit (the experiment drivers sweep
// dev examples across many databases) degrades gracefully rather than
// losing every warm entry at once.
//
// The cache is safe for concurrent use: callers sharing one Pipeline
// across goroutines — or one feedback across parallel candidates — hit
// these maps simultaneously, so every access runs under the mutex.
type boundedCache[K comparable, V any] struct {
	limit int
	mu    sync.Mutex
	m     map[K]V
}

// getOrCreate returns the cached value for k, building and caching it with
// build on a miss. The whole round-trip is atomic, so concurrent callers
// racing on a cold key share one value — which is what lets parallel
// candidate verification share a single executor (and explainer) per
// database instead of compiling plans once per goroutine.
func (c *boundedCache[K, V]) getOrCreate(k K, build func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		return v
	}
	v := build()
	if c.m == nil {
		c.m = make(map[K]V, c.limit)
	} else if len(c.m) >= c.limit {
		for evict := range c.m {
			delete(c.m, evict)
			break
		}
	}
	c.m[k] = v
	return v
}
