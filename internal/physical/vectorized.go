package physical

import (
	"fmt"
	"time"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
)

// VectorizedPipelineExec runs a fused filter/project pipeline batch-at-a-time
// directly over a BatchScan (the columnar cache or a columnar file): each
// batch's referenced columns are decoded ONCE into typed vectors, predicates
// narrow a selection vector, and rows are materialized only at the pipeline
// boundary for the surviving positions. This removes the per-row boxing and
// interface dispatch that the row-at-a-time path pays between the scan and
// the first operator — the gap EXPERIMENTS.md measures against the native
// baseline.
//
// The Vectorize preparation rule swaps it in for PipelineExec over a
// BatchScan when at least one stage compiles to native kernels.
type VectorizedPipelineExec struct {
	PlanEstimate
	PlanMetrics
	FusionNote
	// Stages are listed bottom (first applied) to top, as in PipelineExec.
	Stages []stage
	Scan   BatchScan
	// Native counts stages that compiled to native batch kernels (the rest
	// run through the per-row scalar fallback inside the batch loop).
	Native int
}

func (v *VectorizedPipelineExec) Children() []SparkPlan { return []SparkPlan{v.Scan} }
func (v *VectorizedPipelineExec) WithNewChildren(children []SparkPlan) SparkPlan {
	if scan, ok := asBatchScan(children[0]); ok {
		c := *v
		c.Scan = scan
		return &c
	}
	// The leaf no longer produces batches: degrade to the row pipeline.
	return transferEstimate(&PipelineExec{Stages: v.Stages, Child: children[0]}, v)
}
func (v *VectorizedPipelineExec) Output() []*expr.AttributeReference {
	return stagesOutput(v.Stages, v.Scan.Output())
}
func (v *VectorizedPipelineExec) SimpleString() string {
	return fmt.Sprintf("VectorizedPipeline (%d stages, %d native)", len(v.Stages), v.Native)
}
func (v *VectorizedPipelineExec) String() string { return Format(v) }

// vecStage is a stage compiled to batch kernels.
type vecStage struct {
	isFilter bool
	pred     expr.VecPred
	evals    []expr.VecEval
	native   bool
}

// compileVecStages binds and compiles the stage chain against the scan
// output. It returns the compiled stages, which scan output positions the
// first batch must decode (everything a stage references before the first
// projection replaces the batch — or every column when no projection exists,
// since all of them survive to materialization), and how many stages
// compiled natively.
func compileVecStages(stages []stage, attrs []*expr.AttributeReference) ([]vecStage, []bool, int) {
	used := make([]bool, len(attrs))
	out := make([]vecStage, len(stages))
	native := 0
	projected := false
	cur := attrs
	for i, st := range stages {
		if st.isFilter {
			cond := bind(st.cond, cur)
			if !projected {
				markBoundRefs(cond, used)
			}
			pred, ok := expr.CompileVecPredicate(cond)
			out[i] = vecStage{isFilter: true, pred: pred, native: ok}
			if ok {
				native++
			}
			continue
		}
		bound := bindAll(st.list, cur)
		evals := make([]expr.VecEval, len(bound))
		allNative := true
		for j, e := range bound {
			if !projected {
				markBoundRefs(e, used)
			}
			ev, ok := expr.CompileVec(e)
			evals[j] = ev
			allNative = allNative && ok
		}
		out[i] = vecStage{evals: evals, native: allNative}
		if allNative {
			native++
		}
		projected = true
		cur = stageAttrs(st)
	}
	if !projected {
		for j := range used {
			used[j] = true
		}
	}
	return out, used, native
}

// markBoundRefs records which input ordinals a bound expression touches.
func markBoundRefs(e expr.Expression, used []bool) {
	if b, ok := e.(*expr.BoundReference); ok {
		used[b.Ordinal] = true
		return
	}
	for _, c := range e.Children() {
		markBoundRefs(c, used)
	}
}

func (v *VectorizedPipelineExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	om := v.EnableMetrics(ctx.Metrics)
	loop := v.batchLoop(ctx, om, nil)
	return rdd.Generate(ctx.RDD, "scanVec", loop.batches.NumPartitions, func(p int) []row.Row {
		start := time.Now()
		var out []row.Row
		loop.run(p, func(batch *expr.VecBatch, live []int32) {
			for _, i := range live {
				out = append(out, boxBatchRow(batch, int(i)))
			}
		})
		om.RecordPartition(len(out), time.Since(start))
		return out
	})
}

// batchLoop is a vectorized pipeline compiled for one execution: its stage
// kernels, the opened batch scan, and the metrics it credits. The pipeline
// itself and the operators fused onto it all run through it.
type batchLoop struct {
	batches    datasource.Batches
	stages     []vecStage
	scanOM, om *OperatorMetrics
}

// batchLoop compiles the pipeline; om is the executing operator's metrics.
// used, when non-nil, replaces the pipeline's own decode set (which scan
// output positions to decode) with what a fused consumer actually reads.
func (v *VectorizedPipelineExec) batchLoop(ctx *ExecContext, om *OperatorMetrics, used []bool) *batchLoop {
	stages, pipeUsed, _ := compileVecStages(v.Stages, v.Scan.Output())
	if used == nil {
		used = pipeUsed
	}
	return &batchLoop{
		batches: v.Scan.OpenBatches(used), stages: stages,
		scanOM: v.Scan.EnableMetrics(ctx.Metrics), om: om,
	}
}

// run feeds partition p's batches through the pipeline: filters narrow each
// batch's live rows, and each projection replaces the batch. sink receives
// every batch with surviving rows and their positions.
func (l *batchLoop) run(p int, sink func(batch *expr.VecBatch, live []int32)) {
	l.batches.Partition(p, func(b datasource.Batch) {
		// The scan's rows are never materialized on this path; credit it
		// with the batches and live row counts it fed the pipeline.
		l.scanOM.RecordBatch(len(b.Sel))
		if l.om != nil {
			l.om.Batches.Add(1)
		}
		batch := &expr.VecBatch{Cols: b.Cols, N: b.N}
		live := b.Sel
		for _, st := range l.stages {
			if st.isFilter {
				live = st.pred(batch, live)
				if len(live) == 0 {
					break
				}
				continue
			}
			cols := make([]*columnar.Vector, len(st.evals))
			for j, ev := range st.evals {
				cols[j] = ev(batch, live)
			}
			batch = &expr.VecBatch{Cols: cols, N: b.N}
		}
		if len(live) > 0 {
			sink(batch, live)
		}
	})
}

// boxBatchRow materializes row i of a pipeline's final batch.
func boxBatchRow(b *expr.VecBatch, i int) row.Row {
	r := make(row.Row, len(b.Cols))
	for j, c := range b.Cols {
		r[j] = c.Get(i)
	}
	return r
}

// stageAttrs is the output schema of a projection stage.
func stageAttrs(st stage) []*expr.AttributeReference {
	out := make([]*expr.AttributeReference, len(st.list))
	for i, e := range st.list {
		out[i] = e.(expr.Named).ToAttribute()
	}
	return out
}

// stagesOutput threads a schema through a stage chain.
func stagesOutput(stages []stage, attrs []*expr.AttributeReference) []*expr.AttributeReference {
	for _, st := range stages {
		if !st.isFilter {
			attrs = stageAttrs(st)
		}
	}
	return attrs
}

// Vectorize is the preparation rule (run after Collapse) that swaps
// PipelineExec for VectorizedPipelineExec wherever the pipeline sits
// directly on a BatchScan and at least one fused stage compiles to native
// batch kernels — otherwise vectorization is pure decode overhead and the
// row pipeline is kept.
func Vectorize(p SparkPlan) SparkPlan {
	children := p.Children()
	if len(children) > 0 {
		newChildren := make([]SparkPlan, len(children))
		changed := false
		for i, c := range children {
			nc := Vectorize(c)
			newChildren[i] = nc
			if nc != c {
				changed = true
			}
		}
		if changed {
			p = p.WithNewChildren(newChildren)
		}
	}
	pipe, ok := p.(*PipelineExec)
	if !ok {
		return p
	}
	scan, ok := asBatchScan(pipe.Child)
	if !ok {
		return p
	}
	_, _, native := compileVecStages(pipe.Stages, scan.Output())
	if native == 0 {
		return p
	}
	return transferEstimate(&VectorizedPipelineExec{Stages: pipe.Stages, Scan: scan, Native: native}, pipe)
}
