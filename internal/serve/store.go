package serve

import (
	"container/list"
	"context"
	"sync"

	"planardfs/internal/trace"
)

// store is the content-addressed decomposition cache: an LRU keyed by the
// canonical graph hash, bounded by a byte budget, with single-flight
// build coalescing — when k submitters race on the same hash, exactly one
// runs the pipeline and the other k-1 wait on its flight and are served
// the same immutable *Decomp.
//
// The map is only ever indexed by key, never ranged (the eviction order
// lives in the intrusive LRU list), which keeps the package inside the
// planarvet mapiter determinism contract.
type store struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*list.Element // hash → element holding *storeEntry
	lru     *list.List               // front = most recently used
	flights map[string]*flight
	metrics *trace.Recorder
}

type storeEntry struct {
	hash string
	d    *Decomp
}

// flight is one in-progress build; done is closed when d/err are set.
type flight struct {
	done chan struct{}
	d    *Decomp
	err  error
}

// newStore returns an empty store with the given byte budget (<= 0 means
// unbounded).
func newStore(budget int64, metrics *trace.Recorder) *store {
	return &store{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
		metrics: metrics,
	}
}

// get returns the cached decomposition for hash, refreshing its LRU
// position. It does not count hit/miss metrics — query handlers and the
// build path attribute those themselves.
func (s *store) get(hash string) (*Decomp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[hash]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*storeEntry).d, true
}

// do returns the decomposition for hash, building it at most once across
// concurrent callers: the first caller becomes the flight leader and runs
// build; every concurrent caller for the same hash waits for that flight.
// cached reports whether the result was served without running build in
// this call (a cache hit or a joined flight). A waiting caller whose ctx
// dies returns early; the leader's build owns its own ctx and is not
// affected by waiters leaving.
func (s *store) do(ctx context.Context, hash string, build func() (*Decomp, error)) (d *Decomp, cached bool, err error) {
	s.mu.Lock()
	if el, ok := s.entries[hash]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		s.metrics.Count("serve.cache.hits", 1)
		return el.Value.(*storeEntry).d, true, nil
	}
	if f, ok := s.flights[hash]; ok {
		s.mu.Unlock()
		s.metrics.Count("serve.cache.joined", 1)
		select {
		case <-f.done:
			return f.d, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[hash] = f
	s.mu.Unlock()

	s.metrics.Count("serve.cache.misses", 1)
	f.d, f.err = build()

	s.mu.Lock()
	delete(s.flights, hash)
	if f.err == nil {
		s.insertLocked(hash, f.d)
	}
	s.mu.Unlock()
	close(f.done)
	return f.d, false, f.err
}

// insertLocked adds d under hash and evicts least-recently-used entries
// until the byte budget holds again. The newest entry itself is never
// evicted, so a single oversized decomposition still caches.
func (s *store) insertLocked(hash string, d *Decomp) {
	if el, ok := s.entries[hash]; ok {
		// A racing direct insert won; keep the existing entry.
		s.lru.MoveToFront(el)
		return
	}
	el := s.lru.PushFront(&storeEntry{hash: hash, d: d})
	s.entries[hash] = el
	s.bytes += d.bytes
	for s.budget > 0 && s.bytes > s.budget && s.lru.Len() > 1 {
		tail := s.lru.Back()
		ent := tail.Value.(*storeEntry)
		s.lru.Remove(tail)
		delete(s.entries, ent.hash)
		s.bytes -= ent.d.bytes
		s.metrics.Count("serve.cache.evictions", 1)
	}
	s.metrics.SetGauge("serve.cache.entries", int64(s.lru.Len()))
	s.metrics.SetGauge("serve.cache.bytes", s.bytes)
}
