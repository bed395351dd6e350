// Package memory is the engine's task memory manager — the reproduction's
// stand-in for Spark's MemoryManager/TaskMemoryManager pair under Tungsten.
// A Pool holds one query's execution-memory budget; operators that buffer
// unbounded state (sort buffers, aggregation hash maps, join build sides)
// register a Consumer with a spill callback and reserve bytes through it
// before growing their state. When a reservation cannot be satisfied the
// pool forces the largest other consumer to spill to disk and retries; if
// nothing more can be freed the requester receives ErrNoMemory and is
// expected to spill itself (Spark's "self-spill" path) before forcing the
// minimal reservation through Grow.
//
// Locking discipline: the pool mutex is never held while a spill callback
// runs, and callbacks may call Release (which takes the pool mutex) freely.
// Callbacks must be safe to invoke from any goroutine; operators guard
// their buffered state with their own mutex and never block on the pool
// while holding it, so the only lock order is operator.mu -> pool.mu.
package memory

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// ErrNoMemory reports that a reservation could not be satisfied even after
// spilling every other consumer. The requester should spill its own state
// and retry (or force the minimum working set through Grow).
var ErrNoMemory = errors.New("memory: pool exhausted")

// Pool is one query's execution-memory budget shared by all its tasks.
type Pool struct {
	mu        sync.Mutex
	budget    int64 // <= 0 means unlimited
	used      int64
	peak      int64
	consumers map[*Consumer]struct{}

	spillCount int64
	spillBytes int64

	// Optional registry counters (nil-safe; see metrics.Counter).
	cSpills *metrics.Counter
	cBytes  *metrics.Counter
}

// NewPool creates a pool with the given budget in bytes (<= 0 = unlimited).
// A non-nil scope receives "spill.count" and "spill.bytes" counters.
func NewPool(budget int64, scope *metrics.Scope) *Pool {
	p := &Pool{budget: budget, consumers: make(map[*Consumer]struct{})}
	if scope != nil {
		p.cSpills = scope.Counter("spill.count")
		p.cBytes = scope.Counter("spill.bytes")
	}
	return p
}

// Budget returns the pool's byte budget (<= 0 = unlimited).
func (p *Pool) Budget() int64 { return p.budget }

// Used returns the currently reserved bytes.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Peak returns the high-water mark of reserved bytes.
func (p *Pool) Peak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// SpillCount returns how many spill events the pool has recorded (0 for a
// nil pool).
func (p *Pool) SpillCount() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spillCount
}

// SpillBytes returns the total bytes recorded as spilled.
func (p *Pool) SpillBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spillBytes
}

// RecordSpill accounts one spill event of n bytes. Consumers call it from
// their spill paths (both callback-driven and self-spills) so the pool's
// counters — and the query metrics registry — see every spill once.
func (p *Pool) RecordSpill(n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.spillCount++
	p.spillBytes += n
	p.mu.Unlock()
	p.cSpills.Inc()
	p.cBytes.Add(n)
}

// Consumer is one operator instance's stake in the pool.
type Consumer struct {
	pool *Pool
	name string
	// spill, when non-nil, asks the consumer to move its buffered state to
	// disk and release the freed reservation; it returns the bytes freed.
	// It may be invoked from any goroutine.
	spill func() int64

	// guarded by pool.mu
	used     int64
	spilling bool
}

// NewConsumer registers a consumer. The spill callback may be nil for
// consumers that cannot shrink (they are never chosen as spill victims).
func (p *Pool) NewConsumer(name string, spill func() int64) *Consumer {
	c := &Consumer{pool: p, name: name, spill: spill}
	p.mu.Lock()
	p.consumers[c] = struct{}{}
	p.mu.Unlock()
	return c
}

// Used returns the consumer's current reservation.
func (c *Consumer) Used() int64 {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.used
}

// Acquire reserves n bytes. When the pool is exhausted it spills the
// largest other consumer (repeatedly) until the reservation fits; it never
// invokes the requester's own spill callback, so callers may hold their
// state ready. Returns ErrNoMemory (wrapped) if nothing more can be freed.
func (c *Consumer) Acquire(n int64) error {
	return c.reserve(n, false)
}

// Grow extends the reservation by n bytes like Acquire, but never fails:
// after spilling everything spillable it reserves over budget. Operators
// use it for the irreducible working set after a self-spill (a sort buffer
// must hold at least the row being added).
func (c *Consumer) Grow(n int64) {
	_ = c.reserve(n, true)
}

func (c *Consumer) reserve(n int64, force bool) error {
	if n <= 0 {
		return nil
	}
	p := c.pool
	tried := make(map[*Consumer]bool)
	p.mu.Lock()
	for {
		if p.budget <= 0 || p.used+n <= p.budget || (force && c.victimLocked(tried) == nil) {
			p.used += n
			c.used += n
			if p.used > p.peak {
				p.peak = p.used
			}
			p.mu.Unlock()
			return nil
		}
		victim := c.victimLocked(tried)
		if victim == nil {
			used := p.used // snapshot before unlocking: p.used is guarded by p.mu
			p.mu.Unlock()
			return fmt.Errorf("memory: %s needs %d B, %d/%d B reserved: %w",
				c.name, n, used, p.budget, ErrNoMemory)
		}
		victim.spilling = true
		p.mu.Unlock()
		freed := victim.spill() // outside the lock; may call Release
		p.mu.Lock()
		victim.spilling = false
		if freed <= 0 {
			tried[victim] = true // nothing left there; avoid livelock
		}
	}
}

// victimLocked picks the largest other spillable consumer not already tried
// and not currently spilling. Caller holds p.mu.
func (c *Consumer) victimLocked(tried map[*Consumer]bool) *Consumer {
	var victim *Consumer
	for other := range c.pool.consumers {
		if other == c || other.spill == nil || other.spilling || tried[other] || other.used <= 0 {
			continue
		}
		if victim == nil || other.used > victim.used {
			victim = other
		}
	}
	return victim
}

// Release returns up to n reserved bytes to the pool (clamped to the
// consumer's reservation, so over-release is harmless).
func (c *Consumer) Release(n int64) {
	if n <= 0 {
		return
	}
	p := c.pool
	p.mu.Lock()
	if n > c.used {
		n = c.used
	}
	c.used -= n
	p.used -= n
	p.mu.Unlock()
}

// Free releases the consumer's whole reservation and unregisters it; the
// consumer must not be used afterwards.
func (c *Consumer) Free() {
	p := c.pool
	p.mu.Lock()
	p.used -= c.used
	c.used = 0
	delete(p.consumers, c)
	p.mu.Unlock()
}
