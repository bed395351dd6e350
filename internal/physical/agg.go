package physical

import (
	"context"
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// HashAggregateExec implements grouped aggregation as two hash phases with
// a shuffle between them — partial aggregation per input partition (the
// map-side combine), a hash exchange on the grouping key, and a final merge
// phase — mirroring Spark SQL's partial/final Aggregate pairs.
//
// Aggregate output expressions may embed aggregate functions inside larger
// expressions (e.g. the DecimalAggregates rewrite produces
// MakeDecimal(Sum(...))): execution extracts every AggregateFunc subtree,
// maintains one buffer per function, and evaluates the surrounding
// expression over [groupValues..., aggResults...] at the end.
type HashAggregateExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	AdaptiveNote
	Grouping []expr.Expression
	Aggs     []expr.Expression // Named result expressions
	Child    SparkPlan
	// Partitions, when positive, caps the exchange's reducer count below
	// the session default (chosen by the planner from the estimated input
	// size).
	Partitions int
}

func (h *HashAggregateExec) Children() []SparkPlan { return []SparkPlan{h.Child} }
func (h *HashAggregateExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *h
	c.Child = children[0]
	return &c
}
func (h *HashAggregateExec) Output() []*expr.AttributeReference {
	out := make([]*expr.AttributeReference, len(h.Aggs))
	for i, e := range h.Aggs {
		out[i] = e.(expr.Named).ToAttribute()
	}
	return out
}
func (h *HashAggregateExec) SimpleString() string {
	return fmt.Sprintf("HashAggregate keys=[%s] results=[%s]",
		exprListString(h.Grouping), exprListString(h.Aggs))
}
func (h *HashAggregateExec) String() string { return Format(h) }

// aggPartial is a per-group partial state record flowing through the
// shuffle.
type aggPartial struct {
	key       string
	groupVals row.Row
	buffers   []any
}

func (h *HashAggregateExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	input := h.Child.Output()

	// Bind grouping expressions.
	groupEvals := make([]func(row.Row) any, len(h.Grouping))
	for i, g := range h.Grouping {
		groupEvals[i] = ctx.evaluator(bind(g, input))
	}

	// Extract aggregate functions (bound to input) and build result
	// expressions over the synthetic [groups..., aggValues...] row.
	fns, resultExprs := h.splitAggregates(input)
	resultEvals := make([]func(row.Row) any, len(resultExprs))
	for i, e := range resultExprs {
		resultEvals[i] = ctx.evaluator(e)
	}

	keyOrdinals := make([]int, len(h.Grouping))
	for i := range keyOrdinals {
		keyOrdinals[i] = i
	}

	// Phase 1: partial aggregation per partition. With codegen enabled and
	// a single integral grouping key, the generated path hashes the raw
	// integer and skips per-row group-row and key-string allocation — the
	// "avoids expensive allocation of key-value pairs" specialization the
	// paper credits for the Figure 9 DataFrame win.
	var partials *rdd.RDD[aggPartial]
	if ctx.Codegen && len(h.Grouping) == 1 && types.IsIntegral(h.Grouping[0].DataType()) && !h.Grouping[0].Nullable() {
		groupEval := groupEvals[0]
		partials = rdd.MapPartitions(h.Child.Execute(ctx), func(_ int, in []row.Row) []aggPartial {
			groups := make(map[int64]*aggPartial, 64)
			for _, r := range in {
				kv := groupEval(r)
				var key int64
				if i32, ok := kv.(int32); ok {
					key = int64(i32)
				} else {
					key = kv.(int64)
				}
				g, ok := groups[key]
				if !ok {
					bufs := make([]any, len(fns))
					for i, fn := range fns {
						bufs[i] = fn.NewBuffer()
					}
					g = &aggPartial{groupVals: row.Row{kv}, buffers: bufs}
					groups[key] = g
				}
				for i, fn := range fns {
					g.buffers[i] = fn.Update(g.buffers[i], r)
				}
			}
			out := make([]aggPartial, 0, len(groups))
			for _, g := range groups {
				// The string key is only needed across the shuffle.
				g.key = row.GroupKey(g.groupVals, keyOrdinals)
				out = append(out, *g)
			}
			return out
		})
	} else {
		partials = rdd.MapPartitions(h.Child.Execute(ctx), func(_ int, in []row.Row) []aggPartial {
			groups := make(map[string]*aggPartial, 64)
			for _, r := range in {
				gv := make(row.Row, len(groupEvals))
				for i, ev := range groupEvals {
					gv[i] = ev(r)
				}
				key := row.GroupKey(gv, keyOrdinals)
				g, ok := groups[key]
				if !ok {
					bufs := make([]any, len(fns))
					for i, fn := range fns {
						bufs[i] = fn.NewBuffer()
					}
					g = &aggPartial{key: key, groupVals: gv, buffers: bufs}
					groups[key] = g
				}
				for i, fn := range fns {
					g.buffers[i] = fn.Update(g.buffers[i], r)
				}
			}
			out := make([]aggPartial, 0, len(groups))
			for _, g := range groups {
				out = append(out, *g)
			}
			return out
		})
	}

	return h.finalMerge(ctx, h.EnableMetrics(ctx.Metrics), partials, fns, resultEvals)
}

// finalMerge is phase 2 shared by the row-at-a-time and fused phase-1
// implementations: hash-exchange the partials on the group key, then merge
// per reducer and evaluate result expressions over the synthetic row.
// Keeping one implementation here is what guarantees the fused path inherits
// the grace-partitioned spill behavior (and its tests) unchanged.
func (h *HashAggregateExec) finalMerge(ctx *ExecContext, om *OperatorMetrics, partials *rdd.RDD[aggPartial], fns []expr.AggregateFunc, resultEvals []func(row.Row) any) *rdd.RDD[row.Row] {
	// Global aggregation collapses to one partition; grouped aggregation
	// hash-exchanges on the key.
	numPart := ctx.ShufflePartitions
	if h.Partitions > 0 && h.Partitions < numPart {
		numPart = h.Partitions
	}
	if len(h.Grouping) == 0 {
		numPart = 1
	}
	shuffled := rdd.PartitionByHash(partials, numPart, func(p aggPartial) uint64 {
		return row.HashValue(p.key)
	})

	// Phase 2: final merge + result evaluation. The merge map is a grace
	// hash aggregation: under a memory budget it partitions itself to disk
	// instead of growing unbounded.
	return rdd.MapPartitionsCtx(shuffled, func(_ context.Context, p int, in []aggPartial) ([]row.Row, error) {
		start := time.Now()
		g := newSpillableGroups(ctx, "agg", fns, len(in))
		defer g.Close()
		for i := range in {
			if err := g.add(in[i].key, in[i].groupVals, in[i].buffers); err != nil {
				return nil, err
			}
		}
		states, err := g.Finish()
		if err != nil {
			return nil, err
		}
		// A global aggregate over an empty input still emits one row
		// (SELECT count(*) FROM empty => 0).
		if len(h.Grouping) == 0 && len(states) == 0 && p == 0 {
			bufs := make([]any, len(fns))
			for i, fn := range fns {
				bufs[i] = fn.NewBuffer()
			}
			states = append(states, &aggState{buffers: bufs})
		}
		out := make([]row.Row, 0, len(states))
		for _, st := range states {
			synthetic := make(row.Row, len(h.Grouping)+len(fns))
			copy(synthetic, st.groupVals)
			for i, fn := range fns {
				synthetic[len(h.Grouping)+i] = fn.Result(st.buffers[i])
			}
			result := make(row.Row, len(resultEvals))
			for i, ev := range resultEvals {
				result[i] = ev(synthetic)
			}
			out = append(out, result)
		}
		om.RecordPartition(len(out), time.Since(start))
		om.RecordSpill(g.Stats())
		return out, nil
	})
}

// splitAggregates extracts the distinct aggregate functions from the result
// expressions (binding their children to the input schema) and rewrites the
// result expressions over the synthetic row layout
// [group0..groupG-1, agg0..aggN-1].
func (h *HashAggregateExec) splitAggregates(input []*expr.AttributeReference) ([]expr.AggregateFunc, []expr.Expression) {
	var fns []expr.AggregateFunc
	fnKeys := make(map[string]int)

	// Grouping expressions map to synthetic ordinals by structural match.
	groupRefs := make([]expr.Expression, len(h.Grouping))
	copy(groupRefs, h.Grouping)

	rewrite := func(e expr.Expression) expr.Expression {
		return expr.TransformDown(e, func(x expr.Expression) (expr.Expression, bool) {
			// Whole-expression match against a grouping expression.
			for gi, g := range groupRefs {
				if expr.Equivalent(x, g) {
					return &expr.BoundReference{
						Ordinal: gi,
						Type:    g.DataType(),
						Null:    g.Nullable(),
					}, true
				}
			}
			if fn, ok := x.(expr.AggregateFunc); ok {
				key := fn.String()
				idx, seen := fnKeys[key]
				if !seen {
					idx = len(fns)
					fnKeys[key] = idx
					bound := bind(fn, input).(expr.AggregateFunc)
					fns = append(fns, bound)
				}
				return &expr.BoundReference{
					Ordinal: len(h.Grouping) + idx,
					Type:    fn.DataType(),
					Null:    fn.Nullable(),
				}, true
			}
			return nil, false
		})
	}

	results := make([]expr.Expression, len(h.Aggs))
	for i, e := range h.Aggs {
		// Strip the top-level alias; naming lives in Output().
		if a, ok := e.(*expr.Alias); ok {
			results[i] = rewrite(a.Child)
		} else {
			results[i] = rewrite(e)
		}
	}
	return fns, results
}

// DistinctExec removes duplicate rows via a hash exchange.
type DistinctExec struct {
	PlanEstimate
	PlanMetrics
	AdaptiveNote
	Child SparkPlan
	// Partitions, when positive, caps the exchange's reducer count below
	// the session default.
	Partitions int
}

func (d *DistinctExec) Children() []SparkPlan { return []SparkPlan{d.Child} }
func (d *DistinctExec) WithNewChildren(children []SparkPlan) SparkPlan {
	c := *d
	c.Child = children[0]
	return &c
}
func (d *DistinctExec) Output() []*expr.AttributeReference { return d.Child.Output() }
func (d *DistinctExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	n := len(d.Child.Output())
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	numPart := ctx.ShufflePartitions
	if d.Partitions > 0 && d.Partitions < numPart {
		numPart = d.Partitions
	}
	shuffled := rdd.PartitionByHashCodec(d.Child.Execute(ctx), numPart, func(r row.Row) uint64 {
		return row.Hash(r, ords)
	}, rowShuffleCodec)
	om := d.EnableMetrics(ctx.Metrics)
	// The dedup map is the aggregation machinery with zero aggregate
	// buffers: grace-partitioned to disk under a memory budget, emitted in
	// first-seen order.
	return rdd.MapPartitionsCtx(shuffled, func(_ context.Context, _ int, in []row.Row) ([]row.Row, error) {
		start := time.Now()
		g := newSpillableGroups(ctx, "distinct", nil, len(in))
		defer g.Close()
		for _, r := range in {
			if err := g.add(row.GroupKey(r, ords), r, nil); err != nil {
				return nil, err
			}
		}
		states, err := g.Finish()
		if err != nil {
			return nil, err
		}
		out := make([]row.Row, 0, len(states))
		for _, st := range states {
			out = append(out, st.groupVals)
		}
		om.RecordPartition(len(out), time.Since(start))
		om.RecordSpill(g.Stats())
		return out, nil
	})
}
func (d *DistinctExec) SimpleString() string { return "Distinct" }
func (d *DistinctExec) String() string       { return Format(d) }
