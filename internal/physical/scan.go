package physical

import (
	"fmt"
	"time"

	"repro/internal/columnar"
	"repro/internal/datasource"
	"repro/internal/expr"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// ScanExec is the generic leaf: it wraps a partition-producing function for
// local relations, RDDs, ranges and data sources.
type ScanExec struct {
	PlanEstimate
	PlanMetrics
	Name  string
	Attrs []*expr.AttributeReference
	// Build produces the RDD when executed.
	Build func(ctx *ExecContext) *rdd.RDD[row.Row]
	// Batches, when non-nil, opens the scan as typed column batches, which
	// makes the leaf a BatchScan (sources implementing
	// datasource.ColumnarScan).
	Batches func(used []bool) datasource.Batches
	// Detail annotates EXPLAIN output (pushed filters/columns).
	Detail string
}

func (s *ScanExec) Children() []SparkPlan { return nil }
func (s *ScanExec) WithNewChildren(children []SparkPlan) SparkPlan {
	return s
}
func (s *ScanExec) Output() []*expr.AttributeReference { return s.Attrs }
func (s *ScanExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	return s.Build(ctx)
}
func (s *ScanExec) OpenBatches(used []bool) datasource.Batches { return s.Batches(used) }
func (s *ScanExec) SimpleString() string {
	if s.Detail != "" {
		return fmt.Sprintf("Scan %s %s %s", s.Name, attrsString(s.Attrs), s.Detail)
	}
	return fmt.Sprintf("Scan %s %s", s.Name, attrsString(s.Attrs))
}
func (s *ScanExec) String() string { return Format(s) }

// NewLocalScan scans in-memory rows, splitting them across the default
// parallelism.
func NewLocalScan(attrs []*expr.AttributeReference, rows []row.Row) *ScanExec {
	s := &ScanExec{Name: "LocalRelation", Attrs: attrs}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		n := ctx.RDD.Parallelism()
		total := len(rows)
		return rdd.Generate(ctx.RDD, "parallelize", n, func(p int) []row.Row {
			start := time.Now()
			lo := total * p / n
			hi := total * (p + 1) / n
			out := make([]row.Row, hi-lo)
			copy(out, rows[lo:hi])
			om.RecordPartition(len(out), time.Since(start))
			return out
		})
	}
	return s
}

// NewRDDScan scans an existing row RDD (paper §3.5: the logical data scan
// operator pointing to a native RDD).
func NewRDDScan(attrs []*expr.AttributeReference, r *rdd.RDD[row.Row]) *ScanExec {
	s := &ScanExec{Name: "ExistingRDD", Attrs: attrs}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		if om == nil {
			return r
		}
		// The RDD pre-exists the scan; counting needs a pass-through stage.
		return rdd.MapPartitions(r, func(_ int, in []row.Row) []row.Row {
			om.RecordPartition(len(in), 0)
			return in
		})
	}
	return s
}

// NewRangeScan produces [start,end) by step across partitions.
func NewRangeScan(attr *expr.AttributeReference, start, end, step int64, partitions int) *ScanExec {
	s := &ScanExec{Name: "Range", Attrs: []*expr.AttributeReference{attr}}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		n := partitions
		if n <= 0 {
			n = ctx.RDD.Parallelism()
		}
		total := (end - start + step - 1) / step
		if total < 0 {
			total = 0
		}
		return rdd.Generate(ctx.RDD, "range", n, func(p int) []row.Row {
			t0 := time.Now()
			lo := total * int64(p) / int64(n)
			hi := total * int64(p+1) / int64(n)
			out := make([]row.Row, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, row.Row{start + i*step})
			}
			om.RecordPartition(len(out), time.Since(t0))
			return out
		})
	}
	return s
}

// NewSourceScan scans a data source relation through the smartest interface
// it offers, passing pushed columns and filters (paper §4.4.1).
func NewSourceScan(name string, attrs []*expr.AttributeReference, rel datasource.Relation,
	cols []string, filters []datasource.Filter, predicates []expr.Expression) *ScanExec {
	detail := ""
	if len(cols) > 0 {
		detail += fmt.Sprintf("columns=%v ", cols)
	}
	if len(filters) > 0 {
		detail += fmt.Sprintf("pushed=%v", filters)
	}
	if len(predicates) > 0 {
		detail += fmt.Sprintf("pushedExprs=%v", predicates)
	}
	s := &ScanExec{Name: "Source " + name, Attrs: attrs, Detail: detail}
	if cs, ok := rel.(datasource.ColumnarScan); ok && len(predicates) == 0 {
		s.Batches = func(used []bool) datasource.Batches {
			return openColumnar(cs, name, scanColumns(attrs, cols), filters, used)
		}
	}
	s.Build = func(ctx *ExecContext) *rdd.RDD[row.Row] {
		om := s.EnableMetrics(ctx.Metrics)
		scan, err := openScan(rel, attrs, cols, filters, predicates)
		if err != nil {
			panic(fmt.Sprintf("physical: opening scan of %s: %v", name, err))
		}
		return rdd.Generate(ctx.RDD, "scan:"+name, scan.NumPartitions, func(p int) []row.Row {
			t0 := time.Now()
			out := scan.Partition(p)
			om.RecordPartition(len(out), time.Since(t0))
			return out
		})
	}
	return s
}

// scanColumns is the column list a source scan requests: the pushed
// pruning, or every declared column when none was pushed.
func scanColumns(attrs []*expr.AttributeReference, cols []string) []string {
	if len(cols) > 0 {
		return cols
	}
	cols = make([]string, len(attrs))
	for i, a := range attrs {
		cols[i] = a.Name
	}
	return cols
}

// openColumnar opens a columnar source scan for the output positions marked
// in used, placing each returned vector at its output position (unused
// positions stay nil).
func openColumnar(cs datasource.ColumnarScan, name string, cols []string, filters []datasource.Filter,
	used []bool) datasource.Batches {
	var want []string
	var pos []int
	for j, u := range used {
		if u {
			want = append(want, cols[j])
			pos = append(pos, j)
		}
	}
	batches, err := cs.ScanColumnar(want, filters)
	if err != nil {
		panic(fmt.Sprintf("physical: opening columnar scan of %s: %v", name, err))
	}
	return datasource.Batches{
		NumPartitions: batches.NumPartitions,
		Partition: func(p int, fn func(datasource.Batch)) {
			batches.Partition(p, func(b datasource.Batch) {
				placed := make([]*columnar.Vector, len(cols))
				for k, j := range pos {
					placed[j] = b.Cols[k]
				}
				b.Cols = placed
				fn(b)
			})
		},
	}
}

// openScan picks the best scan interface available for the pushdown set.
func openScan(rel datasource.Relation, attrs []*expr.AttributeReference,
	cols []string, filters []datasource.Filter, predicates []expr.Expression) (datasource.Scan, error) {
	cols = scanColumns(attrs, cols)
	switch r := rel.(type) {
	case datasource.CatalystScan:
		return r.ScanCatalyst(cols, predicates)
	case datasource.PrunedFilteredScan:
		return r.ScanPrunedFiltered(cols, filters)
	case datasource.PrunedScan:
		return r.ScanPruned(cols)
	case datasource.TableScan:
		return r.ScanAll()
	}
	return datasource.Scan{}, fmt.Errorf("relation %T implements no scan interface", rel)
}

// InMemoryScanExec scans the columnar cache with optional column pruning
// and batch skipping (paper §3.6). It is one of the two BatchScan leaves:
// OpenBatches decodes the cached batches that survive skipping.
type InMemoryScanExec struct {
	PlanEstimate
	PlanMetrics
	Attrs []*expr.AttributeReference
	Table *columnar.CachedTable
	// Ordinals maps each output position to its cached column (nil = all
	// columns in schema order).
	Ordinals []int
	// Keep skips batches by min/max statistics (nil = keep all).
	Keep columnar.BatchPredicate
}

// NewInMemoryScan builds a columnar cache scan.
func NewInMemoryScan(attrs []*expr.AttributeReference, table *columnar.CachedTable,
	ordinals []int, keep columnar.BatchPredicate) *InMemoryScanExec {
	return &InMemoryScanExec{Attrs: attrs, Table: table, Ordinals: ordinals, Keep: keep}
}

func (s *InMemoryScanExec) Children() []SparkPlan { return nil }
func (s *InMemoryScanExec) WithNewChildren(children []SparkPlan) SparkPlan {
	return s
}
func (s *InMemoryScanExec) Output() []*expr.AttributeReference { return s.Attrs }
func (s *InMemoryScanExec) Execute(ctx *ExecContext) *rdd.RDD[row.Row] {
	table, ordinals, keep := s.Table, s.Ordinals, s.Keep
	om := s.EnableMetrics(ctx.Metrics)
	return rdd.Generate(ctx.RDD, "cacheScan", len(table.Partitions), func(p int) []row.Row {
		t0 := time.Now()
		out := table.ScanPartition(p, ordinals, keep)
		om.RecordPartition(len(out), time.Since(t0))
		return out
	})
}

// OpenBatches implements BatchScan: each cached batch that survives min/max
// skipping has its used columns decoded, with every row live.
func (s *InMemoryScanExec) OpenBatches(used []bool) datasource.Batches {
	eff := make([]int, len(s.Attrs))
	colTypes := make([]types.DataType, len(s.Attrs))
	for j := range s.Attrs {
		ord := j
		if s.Ordinals != nil {
			ord = s.Ordinals[j]
		}
		colTypes[j] = s.Table.Schema.Fields[ord].Type
		eff[j] = -1
		if used[j] {
			eff[j] = ord
		}
	}
	table, keep := s.Table, s.Keep
	return datasource.Batches{
		NumPartitions: len(table.Partitions),
		Partition: func(p int, fn func(datasource.Batch)) {
			for _, b := range table.Partitions[p] {
				if keep != nil && !keep(b.Stats) {
					continue
				}
				live := make([]int32, b.NumRows)
				for i := range live {
					live[i] = int32(i)
				}
				fn(datasource.Batch{Cols: b.DecodeBatch(colTypes, eff), N: b.NumRows, Sel: live})
			}
		},
	}
}

func (s *InMemoryScanExec) SimpleString() string {
	if s.Ordinals != nil {
		return fmt.Sprintf("Scan InMemoryColumnar %s ordinals=%v", attrsString(s.Attrs), s.Ordinals)
	}
	return fmt.Sprintf("Scan InMemoryColumnar %s", attrsString(s.Attrs))
}
func (s *InMemoryScanExec) String() string { return Format(s) }

// BatchScan is the leaf of the vectorized and fused pipelines: a scan whose
// partitions arrive as typed column batches. The columnar cache
// (InMemoryScanExec) is one implementation; a ScanExec over a source that
// implements datasource.ColumnarScan is the other. Use asBatchScan to test
// a plan node: a ScanExec has the method but only some have batches.
type BatchScan interface {
	SparkPlan
	EnableMetrics(enabled bool) *OperatorMetrics
	// OpenBatches starts one execution that decodes the output positions
	// marked in used; the other positions are nil vectors.
	OpenBatches(used []bool) datasource.Batches
}

// asBatchScan returns p as a BatchScan when it can feed the batch loop.
func asBatchScan(p SparkPlan) (BatchScan, bool) {
	if s, ok := p.(*ScanExec); ok && s.Batches == nil {
		return nil, false
	}
	bs, ok := p.(BatchScan)
	return bs, ok
}
