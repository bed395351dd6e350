package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	sparksql "repro"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/row"
	"repro/internal/sqlparser"
)

// The traced run executes every statement twice: once through the public
// API, which gives the statement's wall time and the program's own counters
// and spans, and once split into the layers' public functions, which gives
// the compile phases, the adaptive stages, the final execution and each
// operator's recorded time. The split run builds its plans with the
// engine's own optimizer and planner configuration; parity checks compare
// their hashes with the engine's plans once per statement class.

// opClasses are the operator groups physical.self_ms.<op> reports.
var opClasses = []string{
	"scan_colfile", "scan_columnar", "pipeline", "vec_pipeline", "hash_agg",
	"fused_agg", "hash_join", "fused_join", "sort", "limit", "other",
}

// opClass groups an executed operator for physical.self_ms.<op>.
func opClass(p physical.SparkPlan) string {
	switch n := p.(type) {
	case *physical.ScanExec:
		if strings.HasPrefix(n.Name, "Source colfile") {
			return "scan_colfile"
		}
	case *physical.InMemoryScanExec:
		return "scan_columnar"
	case *physical.PipelineExec, *physical.ProjectExec, *physical.FilterExec:
		return "pipeline"
	case *physical.VectorizedPipelineExec:
		return "vec_pipeline"
	case *physical.HashAggregateExec, *physical.DistinctExec:
		return "hash_agg"
	case *physical.FusedAggregateExec:
		return "fused_agg"
	case *physical.BroadcastHashJoinExec, *physical.ShuffledHashJoinExec:
		return "hash_join"
	case *physical.FusedBroadcastJoinExec:
		return "fused_join"
	case *physical.SortExec:
		return "sort"
	case *physical.LimitExec:
		return "limit"
	}
	return "other"
}

// counterNames are the program's counters the traced run reads as deltas
// around each public execution.
var counterNames = []string{
	"rdd.tasks.run", "rdd.tasks.retries", "rdd.shuffle.records", "rdd.shuffle.bytes",
	"cluster.fallback", "cluster.tasks.dispatched",
	"store.wal.bytes", "store.checkpoints", "store.stats.refreshes",
	"store.rows.inserted", "store.rows.deleted", "store.rows.updated",
}

func readCounters(reg *metrics.Registry) []int64 {
	out := make([]int64, len(counterNames))
	for i, n := range counterNames {
		out[i] = reg.Counter(n).Load()
	}
	return out
}

// spanReader drains a trace ring between statements: the ring cannot be
// emptied without detaching the subsystems that hold it, so the reader
// tracks how many spans it has seen and takes the newer ones from a
// snapshot. Spans appended beyond the ring's capacity between two drains
// are lost and counted.
type spanReader struct {
	tb   *metrics.TraceBuffer
	seen int64
	lost int64
}

func newSpanReader(tb *metrics.TraceBuffer) *spanReader {
	return &spanReader{tb: tb, seen: tb.Total()}
}

func (r *spanReader) pending() int64 { return r.tb.Total() - r.seen }

func (r *spanReader) drain() []metrics.Span {
	total := r.tb.Total()
	n := total - r.seen
	r.seen = total
	if n <= 0 {
		return nil
	}
	snap := r.tb.Snapshot()
	if n > int64(len(snap)) {
		r.lost += n - int64(len(snap))
		n = int64(len(snap))
	}
	return snap[int64(len(snap))-n:]
}

// phases is the split execution of one statement.
type phases struct {
	parse, analyze, optimize, plan, stage, final time.Duration
	adaptations                                  int
	executed                                     physical.SparkPlan
	static                                       physical.SparkPlan
	decisions                                    []physical.Decision
	rows                                         []row.Row
}

func (p phases) total() time.Duration {
	return p.parse + p.analyze + p.optimize + p.plan + p.stage + p.final
}

// classLayers accumulates one class's per-statement components (ms).
type classLayers struct {
	wall, parse, analyze, optimize, plan, stage, final, local []float64
	walNS                                                     int64
}

// window is one traced statement's public execution, in trace-clock
// microseconds; WAL spans carry no trace id and are attributed by time.
type window struct {
	class      string
	start, end int64
}

// layers is the traced run's accumulator.
type layers struct {
	stats    *loopStats
	ctx      *sparksql.Context
	opt      *optimizer.Optimizer
	pl       *physical.Planner
	reader   *spanReader
	perClass map[string]*classLayers
	parity   map[string]bool
	invalid  []string

	statements  int64
	adaptations int64
	fallbacks   int64
	opMS        map[string]float64
	scanMS      float64
	rowsRead    float64
	counters    []int64 // summed deltas, counterNames order
	jobs        int64
	taskBusyNS  int64
	queuedNS    int64
	shuffleNS   int64
	remoteNS    int64
	walCommitNS []float64
	ckptNS      int64
	ckpts       int64
	windows     []window
	wireDown    int64
	wireUp      int64

	// Filled by the workloads' finish step.
	cacheBuildMS []float64
	cacheBytes   int64
	recoveryS    float64
	recoverMS    float64
	diskPerLive  float64
}

func newLayers(ctx *sparksql.Context) *layers {
	l := &layers{
		stats:    newLoopStats(),
		perClass: map[string]*classLayers{},
		parity:   map[string]bool{},
		opMS:     map[string]float64{},
		counters: make([]int64, len(counterNames)),
	}
	l.bind(ctx)
	return l
}

// bind points the split path at ctx's engine configuration.
func (l *layers) bind(ctx *sparksql.Context) {
	if l.ctx == ctx {
		return
	}
	if l.reader != nil {
		l.collect()
	}
	l.ctx = ctx
	cfg := ctx.Engine().Cfg
	l.opt = optimizer.New(cfg.Optimizer)
	l.pl = physical.NewPlanner(cfg.Planner)
	l.pl.TranslateFilter = optimizer.TranslateFilter
	l.reader = newSpanReader(ctx.Trace())
}

// loop runs the traced closed loop until the deadline.
func (l *layers) loop(w workload, deadline time.Time) {
	for time.Now().Before(deadline) {
		s := w.next()
		ctx := w.context()
		l.bind(ctx)
		reg := ctx.Metrics()
		st := l.stats
		st.attempted++

		wire, _ := w.(interface{ wire() (down, up int64) })
		var down0, up0 int64
		if wire != nil {
			down0, up0 = wire.wire()
		}
		c0 := readCounters(reg)
		t0 := time.Now()
		rows, err := runPublic(ctx, s.sql)
		wall := time.Since(t0)
		c1 := readCounters(reg)
		if wire != nil {
			down1, up1 := wire.wire()
			l.wireDown += down1 - down0
			l.wireUp += up1 - up0
		}
		if err == nil {
			err = s.check(rows)
		}
		if err != nil {
			st.fail(s.class, err)
			continue
		}
		st.record(s, wall)
		for i := range c0 {
			l.counters[i] += c1[i] - c0[i]
		}
		l.windows = append(l.windows, window{s.class, metrics.Since(t0), metrics.Since(t0.Add(wall)) + 1})

		ph, err := l.split(ctx, s)
		if err == nil && s.kind == kindQuery {
			err = s.check(ph.rows)
		}
		if err == nil && !l.parity[s.class] {
			err = l.checkParity(ctx, s, ph)
			l.parity[s.class] = true
			if ph.executed != nil {
				l.fallbacks += int64(strings.Count(ph.executed.String(), "fallback:"))
			}
		}
		if err != nil {
			st.fail(s.class, fmt.Errorf("split run: %w", err))
			continue
		}
		l.account(s, wall, ph)
		// Drain well before the ring wraps; draining copies the ring, so
		// it is not done after every statement.
		if l.reader.pending() > metrics.DefaultTraceCapacity/2 {
			l.collect()
		}
	}
	l.collect()
	if l.reader.lost > 0 {
		l.invalid = append(l.invalid, fmt.Sprintf("trace ring lost %d spans between drains", l.reader.lost))
	}
}

// split runs one statement through the layers' public functions.
func (l *layers) split(ctx *sparksql.Context, s stmt) (phases, error) {
	var ph phases
	e := ctx.Engine()
	t := time.Now()
	parsed, err := sqlparser.Parse(s.sql)
	ph.parse = time.Since(t)
	if err != nil {
		return ph, err
	}
	var lp plan.LogicalPlan
	switch st := parsed.(type) {
	case *sqlparser.SelectStatement:
		lp = st.Plan
	case *sqlparser.InsertStatement:
		if lp, err = valuesProjection(ctx, st); err != nil {
			return ph, err
		}
	case *sqlparser.DeleteStatement:
		return ph, analyzeWhere(ctx, &ph, st.Table, st.Where)
	case *sqlparser.UpdateStatement:
		return ph, analyzeWhere(ctx, &ph, st.Table, st.Where)
	default:
		return ph, fmt.Errorf("split run: unsupported statement %T", parsed)
	}

	t = time.Now()
	analyzed, err := e.Analyze(lp)
	ph.analyze = time.Since(t)
	if err != nil {
		return ph, err
	}
	t = time.Now()
	optimized, err := l.opt.Optimize(analyzed)
	ph.optimize = time.Since(t)
	if err != nil {
		return ph, err
	}
	t = time.Now()
	static, err := l.pl.Plan(optimized)
	ph.plan = time.Since(t)
	if err != nil {
		return ph, err
	}
	ph.static = static

	ec := e.ExecContext()
	defer ec.CleanupSpills()
	jc, cancel := context.WithCancel(context.Background())
	defer cancel()
	t = time.Now()
	executed, decisions, err := physical.AdaptPlan(jc, ec, static)
	ph.stage = time.Since(t)
	if err != nil {
		return ph, err
	}
	ph.executed, ph.decisions, ph.adaptations = executed, decisions, len(decisions)
	t = time.Now()
	ph.rows, err = executed.Execute(ec).CollectContext(jc)
	ph.final = time.Since(t)
	return ph, err
}

// valuesProjection is the plan an INSERT ... VALUES evaluates before it
// commits: one projection over a one-row relation, each value cast to its
// target column's type.
func valuesProjection(ctx *sparksql.Context, s *sqlparser.InsertStatement) (plan.LogicalPlan, error) {
	info, ok := ctx.Store().Info(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	if len(s.Columns) != 0 {
		return nil, fmt.Errorf("split run: INSERT with a column list is not modelled")
	}
	var wide []expr.Expression
	for ti, tuple := range s.Values {
		if len(tuple) != len(info.Schema.Fields) {
			return nil, fmt.Errorf("tuple %d has %d values for %d columns", ti+1, len(tuple), len(info.Schema.Fields))
		}
		for vi, v := range tuple {
			target := info.Schema.Fields[vi]
			wide = append(wide, expr.NewAlias(expr.NewCast(v, target.Type), fmt.Sprintf("_v%d_%d", ti, vi)))
		}
	}
	return &plan.Project{List: wide, Child: &plan.OneRowRelation{}}, nil
}

// analyzeWhere is the analysis a DELETE or UPDATE runs on its WHERE clause
// against the table's current snapshot.
func analyzeWhere(ctx *sparksql.Context, ph *phases, table string, where expr.Expression) error {
	rel := ctx.Store().Snapshot(table)
	if rel == nil {
		return fmt.Errorf("unknown table %q", table)
	}
	if where == nil {
		return nil
	}
	t := time.Now()
	_, err := ctx.Engine().Analyze(&plan.Filter{Cond: where, Child: rel})
	ph.analyze = time.Since(t)
	return err
}

// checkParity compares the split run's plans with the engine's own.
func (l *layers) checkParity(ctx *sparksql.Context, s stmt, ph phases) error {
	if ph.static == nil {
		return nil
	}
	var df *sparksql.DataFrame
	var err error
	if s.kind == kindInsert {
		parsed, perr := sqlparser.Parse(s.sql)
		if perr != nil {
			return perr
		}
		lp, perr := valuesProjection(ctx, parsed.(*sqlparser.InsertStatement))
		if perr != nil {
			return perr
		}
		df, err = ctx.FromPlan(lp)
	} else {
		df, err = ctx.SQL(s.sql)
	}
	if err != nil {
		return err
	}
	engineStatic, err := df.PlanHash()
	if err != nil {
		return err
	}
	if mine := (&core.QueryExecution{Physical: ph.static}).PlanHash(); mine != engineStatic {
		return fmt.Errorf("plan parity: split plan %016x, engine plan %016x", mine, engineStatic)
	}
	_, engineAdapted, err := df.AdaptedQuery(ph.decisions)
	if err != nil {
		return err
	}
	mine := (&core.QueryExecution{Physical: ph.static, Executed: ph.executed}).PlanHash()
	if mine != engineAdapted {
		return fmt.Errorf("plan parity: split adapted plan %016x, engine replay %016x", mine, engineAdapted)
	}
	return nil
}

// account adds one traced statement's components.
func (l *layers) account(s stmt, wall time.Duration, ph phases) {
	l.statements++
	c := l.class(s.class)
	c.wall = append(c.wall, ms(wall))
	c.parse = append(c.parse, ms(ph.parse))
	c.analyze = append(c.analyze, ms(ph.analyze))
	c.optimize = append(c.optimize, ms(ph.optimize))
	c.plan = append(c.plan, ms(ph.plan))
	c.stage = append(c.stage, ms(ph.stage))
	c.final = append(c.final, ms(ph.final))
	c.local = append(c.local, ms(ph.total()))
	l.adaptations += int64(ph.adaptations)
	if ph.executed != nil {
		walkPlan(ph.executed, func(p physical.SparkPlan) {
			ma, ok := p.(physical.MetricsAnnotated)
			if !ok || ma.Runtime() == nil {
				return
			}
			m := ma.Runtime()
			self := float64(m.WallNanos.Load()) / 1e6
			l.opMS[opClass(p)] += self
			if sc, ok := p.(*physical.ScanExec); ok && strings.HasPrefix(sc.Name, "Source ") {
				l.scanMS += self
				l.rowsRead += float64(m.OutputRows.Load())
			}
		})
	}
}

// collect drains the trace ring and accounts the spans of the public
// executions: spans with a trace id (the split run's jobs carry none) and
// WAL spans inside a statement's window.
func (l *layers) collect() {
	for _, sp := range l.reader.drain() {
		switch sp.Kind {
		case metrics.SpanWAL:
			w := l.windowAt(sp.Start)
			if w == nil {
				continue
			}
			switch sp.Name {
			case "wal.commit":
				l.walCommitNS = append(l.walCommitNS, float64(sp.DurNS))
				l.class(w.class).walNS += sp.DurNS
			case "wal.checkpoint":
				l.ckpts++
				l.ckptNS += sp.DurNS
			}
			continue
		}
		if sp.Trace == "" {
			continue
		}
		switch sp.Kind {
		case metrics.SpanJob:
			l.jobs++
		case metrics.SpanTask:
			if sp.Worker != "" && !strings.HasSuffix(sp.Name, ".remote") {
				l.remoteNS += sp.DurNS
			} else {
				l.taskBusyNS += sp.DurNS
			}
		case metrics.SpanStage:
			l.queuedNS += sp.QueuedNS
		case metrics.SpanShuffle:
			l.shuffleNS += sp.DurNS
		}
	}
	l.windows = l.windows[:0]
}

func (l *layers) class(name string) *classLayers {
	c := l.perClass[name]
	if c == nil {
		c = &classLayers{}
		l.perClass[name] = c
	}
	return c
}

// windowAt finds the traced statement whose public execution contains t.
func (l *layers) windowAt(t int64) *window {
	i := sort.Search(len(l.windows), func(i int) bool { return l.windows[i].end >= t })
	if i < len(l.windows) && l.windows[i].start <= t {
		return &l.windows[i]
	}
	return nil
}

func walkPlan(p physical.SparkPlan, f func(physical.SparkPlan)) {
	f(p)
	for _, c := range p.Children() {
		walkPlan(c, f)
	}
}

func (l *layers) counter(name string) float64 {
	for i, n := range counterNames {
		if n == name {
			return float64(l.counters[i])
		}
	}
	panic("unknown counter " + name)
}

// report prints the per-layer metrics and the per-class breakdown.
func (l *layers) report(res *result, plain *loopStats, q queryStats, desc map[string]any) {
	n := float64(l.statements)
	if n == 0 {
		n = 1
	}
	var parse, analyze, optimize, planUS, stage, final, unacc []float64
	breakdown := map[string]map[string]float64{}
	var distMed, localMed []float64
	var compileMS, wallMS float64
	for _, class := range sortedKeys(l.perClass) {
		c := l.perClass[class]
		if len(c.wall) == 0 {
			continue
		}
		for i := range c.wall {
			parse = append(parse, c.parse[i]*1e3)
			analyze = append(analyze, c.analyze[i]*1e3)
			optimize = append(optimize, c.optimize[i]*1e3)
			planUS = append(planUS, c.plan[i]*1e3)
			stage = append(stage, c.stage[i])
			final = append(final, c.final[i])
			unacc = append(unacc, c.wall[i]-c.local[i])
		}
		compile := mean(c.parse) + mean(c.analyze) + mean(c.optimize) + mean(c.plan)
		compileMS += compile * float64(len(c.wall))
		wallMS += mean(c.wall) * float64(len(c.wall))
		row := map[string]float64{
			"statements": float64(len(c.wall)),
			"wall_ms":    mean(c.wall),
			"parse_ms":   mean(c.parse), "analyze_ms": mean(c.analyze),
			"optimize_ms": mean(c.optimize), "plan_ms": mean(c.plan),
			"stage_ms": mean(c.stage), "final_ms": mean(c.final),
			"unaccounted_ms": mean(c.wall) - mean(c.local),
			"wal_commit_ms":  float64(c.walNS) / 1e6 / float64(len(c.wall)),
			"compile_share":  compile / mean(c.wall),
		}
		breakdown[class] = row
		distMed = append(distMed, median(c.wall))
		localMed = append(localMed, median(c.local))
	}
	desc["traced_breakdown_mean_per_statement"] = breakdown
	desc["traced_statements"] = l.statements
	if wallMS > 0 {
		desc["compile_share_of_wall"] = compileMS / wallMS
	}

	res.set("sqlparser.parse_us", "us", median(parse))
	res.set("analysis.analyze_us", "us", median(analyze))
	res.set("optimizer.optimize_us", "us", median(optimize))
	res.set("physical.plan_us", "us", median(planUS))
	res.set("physical.stage_ms", "ms", mean(stage))
	res.set("physical.final_ms", "ms", mean(final))
	res.set("physical.unaccounted_ms", "ms", mean(unacc))
	res.set("physical.adaptations", "count", float64(l.adaptations)/n)
	var opTotal float64
	for _, op := range opClasses {
		res.set("physical.self_ms."+op, "ms", l.opMS[op]/n)
		opTotal += l.opMS[op]
	}
	res.set("physical.outside_operators_ms", "ms", mean(stage)+mean(final)-opTotal/n)
	res.set("physical.fallbacks", "count", float64(l.fallbacks))
	res.set("datasource.scan_ms", "ms", l.scanMS/n)
	res.set("datasource.rows_read", "count", l.rowsRead/n)
	res.set("columnar.cache_build_ms", "ms", median(l.cacheBuildMS))
	res.set("columnar.cache_bytes", "bytes", float64(l.cacheBytes))

	res.set("rdd.jobs", "count", float64(l.jobs)/n)
	res.set("rdd.tasks", "count", l.counter("rdd.tasks.run")/n)
	res.set("rdd.task_retries", "count", l.counter("rdd.tasks.retries")/n)
	res.set("rdd.task_busy_ms", "ms", float64(l.taskBusyNS)/1e6/n)
	res.set("rdd.task_queued_ms", "ms", float64(l.queuedNS)/1e6/n)
	res.set("rdd.shuffle_bytes", "bytes", l.counter("rdd.shuffle.bytes")/n)
	res.set("rdd.shuffle_records", "count", l.counter("rdd.shuffle.records")/n)
	res.set("rdd.shuffle_map_ms", "ms", float64(l.shuffleNS)/1e6/n)

	written := l.counter("store.rows.inserted") + l.counter("store.rows.deleted") + l.counter("store.rows.updated")
	res.set("store.wal_commit_us", "us", median(l.walCommitNS)/1e3)
	walPerRow := 0.0
	if written > 0 {
		walPerRow = l.counter("store.wal.bytes") / written
	}
	res.set("store.wal_bytes_per_row", "bytes", walPerRow)
	res.set("store.checkpoints", "count", float64(l.ckpts))
	res.set("store.checkpoint_ms", "ms", float64(l.ckptNS)/1e6)
	res.set("store.stats_refreshes", "count", l.counter("store.stats.refreshes"))
	res.set("store.recover_ms", "ms", l.recoverMS)
	res.set("dfs.disk_bytes_per_live_byte", "ratio", l.diskPerLive)

	// The durable workload's write metrics come from the untraced half,
	// per write class and then the geometric mean, like the read metrics.
	var writeClasses []string
	for _, class := range sortedKeys(plain.lat) {
		if !isRead(class, q) {
			writeClasses = append(writeClasses, class)
		}
	}
	writes := queryMetrics(plain, writeClasses, nil)
	desc["write_samples"] = writes.counts
	desc["write_tail_percentiles"] = writes.pcts
	res.set("dml.write_p50_ms", "ms", writes.geomean)
	res.set("dml.write_tail_ms", "ms", writes.tail)
	ingest := 0.0
	if plain.writeTime > 0 {
		ingest = float64(plain.writeRows) / plain.writeTime.Seconds()
	}
	res.set("dml.ingest_rows_per_s", "1/s", ingest)
	res.set("dml.recovery_s", "s", l.recoveryS)

	overhead := 0.0
	if l.ctx.Cluster() != nil {
		var diffs []float64
		for i := range distMed {
			diffs = append(diffs, distMed[i]-localMed[i])
		}
		overhead = mean(diffs)
	}
	res.set("cluster.overhead_ms", "ms", overhead)
	res.set("cluster.tasks_dispatched", "count", l.counter("cluster.tasks.dispatched")/n)
	res.set("cluster.fallbacks", "count", l.counter("cluster.fallback"))
	res.set("cluster.remote_task_ms", "ms", float64(l.remoteNS)/1e6/n)
	res.set("cluster.wire_bytes_down", "bytes", float64(l.wireDown)/n)
	res.set("cluster.wire_bytes_up", "bytes", float64(l.wireUp)/n)

	stmts := float64(plain.timedStmts)
	if stmts == 0 {
		stmts = 1
	}
	res.set("runtime.alloc_bytes_per_stmt", "bytes", float64(plain.allocBytes)/stmts)
	res.set("runtime.gc_cycles", "count", float64(plain.gcCycles)/stmts)
	res.set("runtime.gc_pause_ms", "ms", float64(plain.gcPauseNS)/1e6/stmts)

	traced := queryMetrics(l.stats, sortedReadClasses(q), nil)
	res.set("metrics.trace_dropped", "count", float64(l.reader.lost))
	overheadPct := 0.0
	if q.geomean > 0 && traced.geomean > 0 {
		overheadPct = 100 * (traced.geomean - q.geomean) / q.geomean
	}
	res.set("metrics.tracing_overhead_pct", "%", overheadPct)
	desc["untraced_geomean_ms"] = q.geomean
	desc["traced_geomean_ms"] = traced.geomean
}

func isRead(class string, q queryStats) bool {
	_, ok := q.counts[class]
	return ok
}

func sortedReadClasses(q queryStats) []string { return sortedKeys(q.counts) }
