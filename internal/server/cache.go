package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/core"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/scheme"
)

// DigestPublished computes the cache key of a published view D′: the
// SHA-256 of its canonical wire form (bucket.WriteJSON re-serializes the
// parsed view, so formatting differences in the request body never split
// the cache). Everything the invariant system depends on — schema,
// bucket membership, SA multisets — is in that wire form, and nothing
// else is, so equal digests mean equal Theorem 1–3 systems.
func DigestPublished(d *bucket.Bucketized) (string, error) {
	return DigestScheme(d, nil)
}

// DigestScheme is DigestPublished with the publication scheme bound in:
// any scheme other than the default appends its name and canonical
// parameter bytes to the hashed material, so two schemes — or two
// parameterizations of one scheme — over the same view never share a
// cache entry, delta chain or history aggregate. Anatomy (nil or
// explicit) keeps the bare publication digest: it is the identity
// scheme whose invariants every view certifies by default, and its
// parameters shape publishing, not what a given view pins down.
func DigestScheme(d *bucket.Bucketized, sch scheme.Scheme) (string, error) {
	h := sha256.New()
	if err := bucket.WriteJSON(h, d); err != nil {
		return "", fmt.Errorf("server: digesting published view: %w", err)
	}
	if sch != nil && sch.Name() != "anatomy" {
		canon, err := scheme.CanonicalParams(sch)
		if err != nil {
			return "", fmt.Errorf("server: digesting scheme params: %w", err)
		}
		h.Write([]byte{0})
		h.Write([]byte(sch.Name()))
		h.Write([]byte{0})
		h.Write(canon)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheEntry is one prepared publication: the immutable invariant base
// (core.Prepared) plus the warm-start duals of the most recent converged
// solve on this D′. Concurrent requests for the same digest share one
// build via the once; the warm seed is label-matched by the solver, so a
// seed taken from a different knowledge set on the same D′ still
// accelerates the shared invariant rows and silently skips the rest.
type cacheEntry struct {
	digest string
	// createdAt is when the entry was inserted; the cache's oldest-entry
	// age gauge reads it to show how stale the LRU tail is.
	createdAt time.Time

	once     sync.Once
	prepared *core.Prepared
	prepTime time.Duration
	err      error

	warmMu sync.Mutex
	warm   []maxent.ConstraintDual
	// state chains delta baselines across requests on this publication:
	// the most recent converged solve's assembled system and solution
	// (core.DeltaState). A delta request diffs against it — its nearest
	// cached ancestor — and re-solves only changed components; the chain
	// advances whenever a converged solve stores its successor state.
	state *core.DeltaState

	// views lists the view keys aliased to this entry, oldest first
	// (guarded by the cache's mutex, not warmMu).
	views [][32]byte
}

// build constructs the prepared base exactly once per entry; every
// caller gets the same result. prepTime records the invariant-build cost
// so the first request on a publication can report it as the "prepare"
// stage of its timings. sch selects the scheme whose invariant rows the
// base carries (nil = the classic default); the entry's digest already
// binds the scheme, so every caller of one entry passes an equivalent
// scheme and the once-guarded build cannot race two schemes.
func (e *cacheEntry) build(ctx context.Context, q *core.Quantifier, d *bucket.Bucketized, sch scheme.Scheme) (*core.Prepared, time.Duration, error) {
	e.once.Do(func() {
		start := time.Now()
		e.prepared, e.err = q.PrepareScheme(ctx, d, sch)
		e.prepTime = time.Since(start)
	})
	return e.prepared, e.prepTime, e.err
}

// takeWarm snapshots the entry's warm-start seed.
func (e *cacheEntry) takeWarm() []maxent.ConstraintDual {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	return e.warm
}

// storeWarm replaces the warm-start seed. Callers only store duals from
// converged solves: an iteration-capped endpoint is start-dependent, so
// seeding from it could make later responses depend on request history
// in a way that changes results, not just iteration counts.
func (e *cacheEntry) storeWarm(duals []maxent.ConstraintDual) {
	if len(duals) == 0 {
		return
	}
	e.warmMu.Lock()
	e.warm = duals
	e.warmMu.Unlock()
}

// takeState snapshots the delta-chain baseline (nil when no converged
// solve has stored one yet). DeltaState is immutable, so concurrent
// holders share it safely.
func (e *cacheEntry) takeState() *core.DeltaState {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	return e.state
}

// storeState advances the delta chain. QuantifyDelta returns a state
// only for converged solves, so the same history-independence argument
// as storeWarm applies: reuse changes iteration counts, never the
// posterior a request reports.
func (e *cacheEntry) storeState(st *core.DeltaState) {
	if st == nil {
		return
	}
	e.warmMu.Lock()
	e.state = st
	e.warmMu.Unlock()
}

// viewKey is the key a request's exact published bytes are aliased
// under: SHA-256 of the canonical scheme declaration (empty for the
// absent default), a 0x00 byte and the raw bytes. Scheme names and
// canonical params hold no 0x00, so no two declarations share a key.
func viewKey(rs *resolvedScheme, published []byte) [32]byte {
	h := sha256.New()
	h.Write(rs.key())
	h.Write([]byte{0})
	h.Write(published)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// viewAlias is what a view key stands for: the digest its bytes produce
// under its scheme, and the view parsed from exactly those bytes.
type viewAlias struct {
	digest string
	pub    *bucket.Bucketized
}

// digestUnder fills in the view's digest under rs unless the alias
// already carried it.
func (v *viewAlias) digestUnder(rs *resolvedScheme) error {
	if v.digest != "" {
		return nil
	}
	d, err := DigestScheme(v.pub, rs.schemeOf())
	v.digest = d
	return err
}

// maxViews bounds the view keys one entry keeps, so that aliases stay
// within a fixed multiple of the cache's capacity however many byte
// forms of one publication arrive.
const maxViews = 4

// preparedCache is a fixed-capacity LRU of cacheEntry keyed by published
// digest. Hits move to front; inserting beyond capacity evicts the least
// recently used entry (in-flight holders of an evicted entry keep using
// it — Prepared is immutable, eviction only drops the cache's
// reference).
//
// Beside the digests, the cache maps view keys to their aliases. An
// alias lets a request that repeats known bytes skip parsing and
// digesting them; it never stands in for the digest as the identity of
// a publication. Aliases live on a resident entry and leave with it.
type preparedCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // *cacheEntry; front = most recently used
	entries map[string]*list.Element
	views   map[[32]byte]viewAlias
	// onEvict, when set, runs (outside the lock is unnecessary — it only
	// bumps a counter) once per capacity eviction; failed-build drops are
	// not evictions.
	onEvict func()
}

func newPreparedCache(capacity int, onEvict func()) *preparedCache {
	if capacity < 1 {
		capacity = 1
	}
	return &preparedCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		views:   make(map[[32]byte]viewAlias),
		onEvict: onEvict,
	}
}

// get returns the entry for digest, creating it when absent. The boolean
// reports a hit (the entry already existed — i.e. the invariant system
// for this D′ is already built or being built by another request).
func (c *preparedCache) get(digest string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry), true
	}
	e := &cacheEntry{digest: digest, createdAt: time.Now()}
	c.entries[digest] = c.order.PushFront(e)
	if c.order.Len() > c.cap {
		c.remove(c.order.Back())
		if c.onEvict != nil {
			c.onEvict()
		}
	}
	return e, false
}

// drop removes the entry for digest if present — used when a build
// fails, so a transient error is not cached forever.
func (c *preparedCache) drop(digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.remove(el)
	}
}

// remove unlinks an entry and the view keys aliased to it. Callers hold
// c.mu.
func (c *preparedCache) remove(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, e.digest)
	for _, k := range e.views {
		delete(c.views, k)
	}
}

// view returns the alias registered under key. It leaves the LRU order
// alone: recency stays the solve's own get, as without aliases.
func (c *preparedCache) view(key [32]byte) (viewAlias, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.views[key]
	return a, ok
}

// alias registers key for the resident entry of a.digest, replacing the
// entry's oldest key beyond maxViews. It does nothing when key is
// already known or the entry is not resident: evicted, dropped, or never
// built, as for a vague solve.
func (c *preparedCache) alias(key [32]byte, a viewAlias) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[a.digest]
	if !ok {
		return
	}
	if _, known := c.views[key]; known {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.views) == maxViews {
		delete(c.views, e.views[0])
		e.views = append(e.views[:0], e.views[1:]...)
	}
	e.views = append(e.views, key)
	c.views[key] = a
}

// len reports the current number of cached publications.
func (c *preparedCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// oldestAge reports the age of the oldest cached entry (0 when empty) —
// the pmaxentd_cache_oldest_entry_age_seconds gauge.
func (c *preparedCache) oldestAge(now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var oldest time.Time
	for el := c.order.Front(); el != nil; el = el.Next() {
		t := el.Value.(*cacheEntry).createdAt
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}
