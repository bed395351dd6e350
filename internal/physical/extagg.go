package physical

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/memory"
	"repro/internal/row"
)

// Grace hash aggregation: the final-merge state of HashAggregateExec and
// DistinctExec. Groups accumulate in an in-memory map. Without a memory pool
// that map is all there is. With one, each new group's bytes are reserved
// from the pool; when a reservation fails (or the pool picks this map as its
// largest victim) every group record is encoded and appended to one of
// aggSpillFanout hash-partitioned spill files, and the reservation is
// released. Finish returns the groups in first-seen order: straight from the
// map when nothing spilled, otherwise by re-reading each disk partition — a
// bounded ~1/fanout slice of the spilled state — merging buffers for keys
// flushed more than once, and ordering by first-seen sequence number.

// aggSpillFanout is the number of hash partitions a spilled aggregation
// map fans out to; each Finish-side merge holds ~1/fanout of the state.
const aggSpillFanout = 16

// aggStateChunk caps how many group states (or buffer sets) are allocated
// together.
const aggStateChunk = 256

// aggState is one group's accumulated state: its first-seen sequence (the
// emission-order key), the grouping values and one buffer per aggregate.
// Until a second partial arrives for the group, buffers are the first
// partial's own (owned == false) and are only read: partials are the
// shuffle's memoized output, which every execution of the plan re-reads.
type aggState struct {
	seq       int64
	groupVals row.Row
	buffers   []any
	owned     bool
}

// spillableGroups is a key → aggState map that degrades to grace hash
// partitioning on disk under memory pressure. fns may be empty (Distinct:
// groups with no aggregation buffers). All methods are called by the
// owning task; the pool's spill callback may fire concurrently from any
// goroutine and is serialized through mu. Without a pool there is no
// callback, so nothing locks.
type spillableGroups struct {
	ctx  *ExecContext
	op   string
	fns  []expr.AggregateFunc
	cons *memory.Consumer // nil without a pool: the map never spills

	mu       sync.Mutex
	groups   map[string]*aggState
	order    []*aggState // the in-memory groups, first seen first
	states   []aggState  // unused tail of the current state chunk
	bufs     []any       // unused tail of the current buffer chunk
	seq      int64       // next first-seen sequence
	memBytes int64       // bytes reserved for the current map
	prefix   string
	blocks   [aggSpillFanout]int // blocks appended per spill partition
	spillErr error

	spilledBytes int64
	spillRuns    int64
}

// newSpillableGroups creates the map for one task. sizeHint (the number of
// records the task will add) presizes it when there is no pool, since then
// every group stays in memory anyway.
func newSpillableGroups(ctx *ExecContext, op string, fns []expr.AggregateFunc, sizeHint int) *spillableGroups {
	g := &spillableGroups{ctx: ctx, op: op, fns: fns}
	if ctx.SpillEnabled() {
		g.cons = ctx.Pool.NewConsumer(op, g.poolSpill)
		sizeHint = 0
	}
	g.groups = make(map[string]*aggState, sizeHint)
	g.order = make([]*aggState, 0, sizeHint)
	return g
}

// stateKey is the canonical grouping key of a group-values row — the same
// key the aggregation phases compute, recomputed on disk reads so spilled
// records need not carry the string.
func stateKey(gv row.Row) string {
	ords := make([]int, len(gv))
	for i := range ords {
		ords[i] = i
	}
	return row.GroupKey(gv, ords)
}

// groupSize approximates one group's in-memory footprint: the grouping
// values plus a flat allowance per aggregation buffer. Buffer growth after
// insertion (COUNT DISTINCT sets) is not re-measured — the allowance keeps
// accounting cheap and the grace partitioning keeps merges bounded anyway.
func groupSize(gv row.Row, numFns int) int64 {
	return gv.ObjectSize() + 48*int64(numFns) + 64
}

// add folds one partial group — its key (which must equal stateKey(gv)),
// grouping values and one buffer per aggregate — into the map. bufs are
// read, never written.
func (g *spillableGroups) add(key string, gv row.Row, bufs []any) error {
	if g.cons == nil {
		g.addLocked(key, gv, bufs, 0)
		return nil
	}
	g.mu.Lock()
	if g.spillErr != nil {
		err := g.spillErr
		g.mu.Unlock()
		return err
	}
	if st, ok := g.groups[key]; ok {
		g.merge(st, bufs)
		g.mu.Unlock()
		return nil
	}
	g.mu.Unlock()

	// New group: reserve before inserting. Acquire runs outside mu (it may
	// spill other consumers, which take their own mutexes); an exhausted
	// pool triggers a self-spill of the whole map, then the irreducible
	// one-group working set is forced through Grow.
	n := groupSize(gv, len(g.fns))
	if err := g.cons.Acquire(n); err != nil {
		if !errors.Is(err, memory.ErrNoMemory) {
			return err
		}
		g.mu.Lock()
		err = g.spillLocked()
		g.mu.Unlock()
		if err != nil {
			return err
		}
		g.cons.Grow(n)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.spillErr != nil {
		return g.spillErr
	}
	// Only the owning task inserts; a concurrent pool spill can only have
	// emptied the map, so the key is still absent here.
	g.addLocked(key, gv, bufs, n)
	return nil
}

// addLocked is add once any reservation is made; n is the reserved bytes.
// Caller holds g.mu when a pool is attached.
func (g *spillableGroups) addLocked(key string, gv row.Row, bufs []any, n int64) {
	if st, ok := g.groups[key]; ok {
		g.merge(st, bufs)
		return
	}
	if len(g.states) == 0 {
		g.states = make([]aggState, g.chunkLen())
	}
	st := &g.states[0]
	g.states = g.states[1:]
	*st = aggState{seq: g.seq, groupVals: gv, buffers: bufs}
	g.seq++
	g.groups[key] = st
	g.order = append(g.order, st)
	g.memBytes += n
}

// merge folds bufs into an existing group, first copying the group's
// borrowed buffers into fresh ones of its own.
func (g *spillableGroups) merge(st *aggState, bufs []any) {
	if len(g.fns) == 0 {
		return
	}
	if !st.owned {
		own := g.newBuffers()
		for i, fn := range g.fns {
			own[i] = fn.Merge(own[i], st.buffers[i])
		}
		st.buffers, st.owned = own, true
	}
	for i, fn := range g.fns {
		st.buffers[i] = fn.Merge(st.buffers[i], bufs[i])
	}
}

// newBuffers returns one empty buffer per aggregate, carving the slice from
// a shared chunk.
func (g *spillableGroups) newBuffers() []any {
	k := len(g.fns)
	if len(g.bufs) < k {
		g.bufs = make([]any, k*g.chunkLen())
	}
	out := g.bufs[:k:k]
	g.bufs = g.bufs[k:]
	for i, fn := range g.fns {
		out[i] = fn.NewBuffer()
	}
	return out
}

// chunkLen is how many states (or buffer sets) the next chunk holds: as
// many as the map already has, so chunks double, within [8, aggStateChunk].
func (g *spillableGroups) chunkLen() int {
	return max(8, min(len(g.order), aggStateChunk))
}

// poolSpill is the memory pool's victim callback.
func (g *spillableGroups) poolSpill() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	freed := g.memBytes
	if err := g.spillLocked(); err != nil {
		if g.spillErr == nil {
			g.spillErr = err
		}
		return 0
	}
	return freed
}

// spillLocked flushes every group to its hash partition's spill file and
// releases the map's reservation. Caller holds g.mu.
func (g *spillableGroups) spillLocked() error {
	if len(g.groups) == 0 {
		return nil
	}
	if g.prefix == "" {
		g.prefix = g.ctx.newSpillPrefix(g.op)
	}
	parts := make([][]row.Row, aggSpillFanout)
	for key, st := range g.groups {
		p := int(row.HashValue(key) % aggSpillFanout)
		parts[p] = append(parts[p], g.encodeState(st))
	}
	var runBytes int64
	for p, recs := range parts {
		if len(recs) == 0 {
			continue
		}
		path := fmt.Sprintf("%s/part%d", g.prefix, p)
		for off := 0; off < len(recs); off += spillBlockRows {
			end := off + spillBlockRows
			if end > len(recs) {
				end = len(recs)
			}
			enc, err := row.EncodeRows(recs[off:end])
			if err != nil {
				return err
			}
			if err := g.ctx.SpillFS.AppendBlock(path, enc); err != nil {
				return err
			}
			runBytes += int64(len(enc))
			g.blocks[p]++
		}
	}
	g.spillRuns++
	g.spilledBytes += runBytes
	g.ctx.Pool.RecordSpill(runBytes)
	// Drop every reference to the flushed groups, chunks included.
	g.groups = make(map[string]*aggState)
	g.order, g.states, g.bufs = nil, nil, nil
	freed := g.memBytes
	g.memBytes = 0
	g.cons.Release(freed)
	return nil
}

// encodeState flattens a group into a codec row:
// {seq, groupVals, {encoded buffer rows...}}.
func (g *spillableGroups) encodeState(st *aggState) row.Row {
	bufs := make(row.Row, len(g.fns))
	for i, fn := range g.fns {
		bufs[i] = fn.EncodeBuffer(st.buffers[i])
	}
	return row.Row{st.seq, st.groupVals, bufs}
}

func (g *spillableGroups) decodeState(rec row.Row) (*aggState, error) {
	if len(rec) != 3 {
		return nil, fmt.Errorf("physical: malformed spilled group record (%d fields)", len(rec))
	}
	st := &aggState{seq: rec[0].(int64), groupVals: rec[1].(row.Row), owned: true}
	bufs := rec[2].(row.Row)
	if len(bufs) != len(g.fns) {
		return nil, fmt.Errorf("physical: spilled group has %d buffers, want %d", len(bufs), len(g.fns))
	}
	if len(g.fns) > 0 {
		st.buffers = make([]any, len(g.fns))
		for i, fn := range g.fns {
			st.buffers[i] = fn.DecodeBuffer(bufs[i].(row.Row))
		}
	}
	return st, nil
}

// Stats returns the bytes spilled and the number of map flushes.
func (g *spillableGroups) Stats() (bytes int64, runs int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spilledBytes, g.spillRuns
}

// Finish returns every group in first-seen order. With nothing spilled that
// is the in-memory order as kept; otherwise the remainder is flushed and
// each disk partition is merged independently. Same-key records are merged
// in run order — the order their updates were applied — so order-sensitive
// buffers (FIRST) resolve exactly as in memory, and the minimum sequence
// restores each group's original first-seen position.
func (g *spillableGroups) Finish() ([]*aggState, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.spillErr != nil {
		return nil, g.spillErr
	}
	if g.prefix == "" {
		out := g.order
		g.groups, g.order = nil, nil
		return out, nil
	}
	if err := g.spillLocked(); err != nil {
		return nil, err
	}
	var out []*aggState
	for p := 0; p < aggSpillFanout; p++ {
		if g.blocks[p] == 0 {
			continue
		}
		path := fmt.Sprintf("%s/part%d", g.prefix, p)
		merged := make(map[string]*aggState)
		for b := 0; b < g.blocks[p]; b++ {
			enc, err := g.ctx.SpillFS.ReadBlock(path, b)
			if err != nil {
				return nil, err
			}
			recs, err := row.DecodeRows(enc)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				st, err := g.decodeState(rec)
				if err != nil {
					return nil, err
				}
				key := stateKey(st.groupVals)
				ex, ok := merged[key]
				if !ok {
					merged[key] = st
					continue
				}
				if st.seq < ex.seq {
					ex.seq = st.seq
				}
				for i, fn := range g.fns {
					ex.buffers[i] = fn.Merge(ex.buffers[i], st.buffers[i])
				}
			}
		}
		for _, st := range merged {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// Close releases the memory reservation and deletes the spill files; tasks
// defer it so retries, panics and cancellation all clean up.
func (g *spillableGroups) Close() {
	g.mu.Lock()
	prefix := g.prefix
	g.prefix = ""
	g.groups, g.order, g.states, g.bufs = nil, nil, nil, nil
	g.memBytes = 0
	g.mu.Unlock()
	if g.cons != nil {
		g.cons.Free()
	}
	if prefix != "" {
		g.ctx.releaseSpillPrefix(prefix)
	}
}
