package physical

import (
	"fmt"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
)

// FusedAggregateExec is the whole-stage fusion of a vectorized pipeline
// with its aggregation sink: batches flow scan → filter → project →
// hash-aggregate update without ever materializing intermediate rows. The
// phase-1 group tables are type-specialized on the common key shapes
// (single int64, single string, (int64, int64)) so grouping never boxes or
// builds key strings on the hot path; everything after the partial flush —
// the shuffle, the final merge, and the grace-partitioned spill path — is
// HashAggregateExec's own phase 2, shared verbatim.
type FusedAggregateExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	Agg  *HashAggregateExec // grouping/aggs/partition cap; Child is unused here
	Pipe *VectorizedPipelineExec
}

func (f *FusedAggregateExec) Children() []SparkPlan { return []SparkPlan{f.Pipe} }
func (f *FusedAggregateExec) WithNewChildren(children []SparkPlan) SparkPlan {
	if vp, ok := children[0].(*VectorizedPipelineExec); ok {
		c := *f
		c.Pipe = vp
		return &c
	}
	// The pipeline degraded (e.g. the leaf stopped producing batches):
	// fall back to the plain two-phase aggregate.
	agg := *f.Agg
	agg.Child = children[0]
	return transferEstimate(&agg, f)
}
func (f *FusedAggregateExec) Output() []*expr.AttributeReference { return f.Agg.Output() }
func (f *FusedAggregateExec) SimpleString() string {
	return fmt.Sprintf("FusedHashAggregate keys=[%s] results=[%s]",
		exprListString(f.Agg.Grouping), exprListString(f.Agg.Aggs))
}
func (f *FusedAggregateExec) String() string { return Format(f) }

func (f *FusedAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	h := f.Agg
	om := f.EnableMetrics(ctx.Metrics)
	input := f.Pipe.Output()
	groupBound := bindAll(h.Grouping, input)
	fns, resultExprs := h.splitAggregates(input)
	resultEvals := make([]func(row.Row) any, len(resultExprs))
	for i, e := range resultExprs {
		resultEvals[i] = ctx.evaluator(e)
	}
	keyOrdinals := make([]int, len(h.Grouping))
	for i := range keyOrdinals {
		keyOrdinals[i] = i
	}

	// Without a projection stage the pipeline's own decode set is "every
	// column" (rows would materialize in full); fused, the only consumers
	// are the filters, the group keys, and the aggregate children — so
	// narrow the decode set to exactly those.
	var used []bool
	if !stagesProject(f.Pipe.Stages) {
		scanOut := f.Pipe.Scan.Output()
		used = make([]bool, len(scanOut))
		for _, st := range f.Pipe.Stages {
			if st.isFilter {
				markBoundRefs(bind(st.cond, scanOut), used)
			}
		}
		for _, g := range groupBound {
			markBoundRefs(g, used)
		}
		for _, fn := range fns {
			markBoundRefs(fn, used)
		}
	}
	loop := f.Pipe.batchLoop(ctx, om, used)

	groupVecs := make([]expr.VecEval, len(groupBound))
	groupNative := make([]bool, len(groupBound))
	for i, g := range groupBound {
		groupVecs[i], groupNative[i] = expr.CompileVec(g)
	}

	partials := rdd.Generate(ctx.RDD, "fusedAgg", loop.batches.NumPartitions, func(p int) []aggPartial {
		// Per-partition mutable state: the group index table and one typed
		// accumulator per aggregate.
		groups := newGroupIndexer(groupBound, groupNative)
		ups := make([]expr.VecAggregator, len(fns))
		for i, fn := range fns {
			ups[i], _ = expr.NewVecAggregator(fn)
		}
		var gidx []int32
		var gvecs []*columnar.Vector
		loop.run(p, func(batch *expr.VecBatch, live []int32) {
			gvecs = gvecs[:0]
			for _, gv := range groupVecs {
				gvecs = append(gvecs, gv(batch, live))
			}
			gidx = groups.indexBatch(gvecs, live, gidx[:0])
			n := groups.count()
			for _, up := range ups {
				up.Update(batch, live, gidx, n)
			}
		})
		rows := groups.groupRows()
		out := make([]aggPartial, len(rows))
		for g, gv := range rows {
			bufs := make([]any, len(ups))
			for i, up := range ups {
				bufs[i] = up.Buffer(g)
			}
			out[g] = aggPartial{key: row.GroupKey(gv, keyOrdinals), groupVals: gv, buffers: bufs}
		}
		return out
	})

	return h.finalMerge(ctx, om, partials, fns, resultEvals)
}

// stagesProject reports whether any stage is a projection (which resets the
// batch schema and therefore the decode set).
func stagesProject(stages []stage) bool {
	for _, st := range stages {
		if !st.isFilter {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Group index tables

// groupIndexer maps each live row's group-key values (read out of the key
// vectors) to a dense group index, creating — and boxing, exactly once — the
// group's value row on first sight. indexBatch appends one index per live
// row to gidx; the per-implementation loop keeps the map access monomorphic
// instead of paying an interface dispatch per row. First-seen order is
// preserved so the partial stream matches the row path's per-partition
// semantics.
type groupIndexer interface {
	indexBatch(vecs []*columnar.Vector, live, gidx []int32) []int32
	count() int
	groupRows() []row.Row
}

// newGroupIndexer picks the specialization for the bound grouping
// expressions: single int64-class key, single string key, or an
// (int64, int64) pair run without boxing or key-string building; anything
// else — or keys whose kernels fell back — uses the generic boxed table.
func newGroupIndexer(bound []expr.Expression, native []bool) groupIndexer {
	cls := func(i int) int {
		if !native[i] {
			return -1
		}
		return expr.VecClassOf(bound[i].DataType())
	}
	switch {
	case len(bound) == 0:
		return &globalGroups{}
	case len(bound) == 1 && cls(0) == expr.VecClassI64:
		return &i64Groups{m: make(map[int64]int32, 64), nullIdx: -1}
	case len(bound) == 1 && cls(0) == expr.VecClassStr:
		return &strGroups{m: make(map[string]int32, 64), nullIdx: -1}
	case len(bound) == 2 && cls(0) == expr.VecClassI64 && cls(1) == expr.VecClassI64:
		return &pairGroups{m: make(map[[3]int64]int32, 64)}
	default:
		return &genericGroups{m: make(map[string]int32, 64), kv: make(row.Row, len(bound)), ords: ordinalsUpTo(len(bound))}
	}
}

func ordinalsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// globalGroups is the degenerate no-GROUP-BY table: one group, created on
// the first row (an empty partition emits no partial, like the row path).
type globalGroups struct {
	rows []row.Row
}

func (t *globalGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32) []int32 {
	if len(live) > 0 && len(t.rows) == 0 {
		t.rows = append(t.rows, row.Row{})
	}
	for range live {
		gidx = append(gidx, 0)
	}
	return gidx
}
func (t *globalGroups) count() int           { return len(t.rows) }
func (t *globalGroups) groupRows() []row.Row { return t.rows }

// i64Groups hashes raw int64 keys (INT/BIGINT/DATE/TIMESTAMP group-bys).
type i64Groups struct {
	m       map[int64]int32
	nullIdx int32
	rows    []row.Row
}

func (t *i64Groups) indexBatch(vecs []*columnar.Vector, live, gidx []int32) []int32 {
	v := vecs[0]
	mask := v.Mask()
	for _, i := range live {
		ii := int(i)
		if v.IsNull(ii) {
			if t.nullIdx < 0 {
				t.nullIdx = int32(len(t.rows))
				t.rows = append(t.rows, row.Row{nil})
			}
			gidx = append(gidx, t.nullIdx)
			continue
		}
		k := v.I64[ii&mask]
		g, ok := t.m[k]
		if !ok {
			g = int32(len(t.rows))
			t.m[k] = g
			t.rows = append(t.rows, row.Row{v.Get(ii)})
		}
		gidx = append(gidx, g)
	}
	return gidx
}
func (t *i64Groups) count() int           { return len(t.rows) }
func (t *i64Groups) groupRows() []row.Row { return t.rows }

// strGroups hashes string keys without re-encoding them per row.
type strGroups struct {
	m       map[string]int32
	nullIdx int32
	rows    []row.Row
}

func (t *strGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32) []int32 {
	v := vecs[0]
	mask := v.Mask()
	for _, i := range live {
		ii := int(i)
		if v.IsNull(ii) {
			if t.nullIdx < 0 {
				t.nullIdx = int32(len(t.rows))
				t.rows = append(t.rows, row.Row{nil})
			}
			gidx = append(gidx, t.nullIdx)
			continue
		}
		k := v.Str[ii&mask]
		g, ok := t.m[k]
		if !ok {
			g = int32(len(t.rows))
			t.m[k] = g
			t.rows = append(t.rows, row.Row{k})
		}
		gidx = append(gidx, g)
	}
	return gidx
}
func (t *strGroups) count() int           { return len(t.rows) }
func (t *strGroups) groupRows() []row.Row { return t.rows }

// pairGroups hashes (int64, int64) key pairs; the third array slot packs
// the NULL bits so (NULL, 0) and (0, NULL) and (0, 0) stay distinct.
type pairGroups struct {
	m    map[[3]int64]int32
	rows []row.Row
}

func (t *pairGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32) []int32 {
	v0, v1 := vecs[0], vecs[1]
	m0, m1 := v0.Mask(), v1.Mask()
	for _, i := range live {
		ii := int(i)
		var k [3]int64
		if v0.IsNull(ii) {
			k[2] |= 1
		} else {
			k[0] = v0.I64[ii&m0]
		}
		if v1.IsNull(ii) {
			k[2] |= 2
		} else {
			k[1] = v1.I64[ii&m1]
		}
		g, ok := t.m[k]
		if !ok {
			g = int32(len(t.rows))
			t.m[k] = g
			t.rows = append(t.rows, row.Row{v0.Get(ii), v1.Get(ii)})
		}
		gidx = append(gidx, g)
	}
	return gidx
}
func (t *pairGroups) count() int           { return len(t.rows) }
func (t *pairGroups) groupRows() []row.Row { return t.rows }

// genericGroups boxes the key values and hashes their injective GroupKey
// encoding — the shape-agnostic fallback, still batch-native (no full-row
// materialization, one boxed key row per NEW group).
type genericGroups struct {
	m    map[string]int32
	kv   row.Row
	ords []int
	rows []row.Row
}

func (t *genericGroups) indexBatch(vecs []*columnar.Vector, live, gidx []int32) []int32 {
	for _, i := range live {
		ii := int(i)
		for j, v := range vecs {
			t.kv[j] = v.Get(ii)
		}
		key := row.GroupKey(t.kv, t.ords)
		g, ok := t.m[key]
		if !ok {
			g = int32(len(t.rows))
			t.m[key] = g
			t.rows = append(t.rows, append(row.Row(nil), t.kv...))
		}
		gidx = append(gidx, g)
	}
	return gidx
}
func (t *genericGroups) count() int           { return len(t.rows) }
func (t *genericGroups) groupRows() []row.Row { return t.rows }
