package core

// Query-level observability: the per-action scope (trace id plus a span
// sink that folds in every span of the action), event-log recording, and
// the span-derived per-stage / per-worker actuals that feed both the event
// log and EXPLAIN ANALYZE's cluster section.

import (
	"context"
	"fmt"
	"maps"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/physical"
	"repro/internal/rdd"
)

// queryScope is the observability scope of one action: its trace id and
// the sink that folds in every span the action emits, locally or absorbed
// from worker replies. The zero scope (observability off) records nothing.
type queryScope struct {
	id    string
	spans *spanActuals
}

// beginQuery opens the observability scope of one action: it allocates the
// trace id and threads it, with the action's span sink, through the job
// context so every span the action emits (local or, via the cluster
// runtime, remote) correlates. With observability off the id stays "",
// which keeps every wire payload and span byte-identical to an engine
// without this layer.
func (e *Engine) beginQuery(jc context.Context) (context.Context, queryScope) {
	if !e.Cfg.Observability {
		return jc, queryScope{}
	}
	qs := queryScope{
		id:    fmt.Sprintf("q-%d-%d", os.Getpid(), e.traceSeq.Add(1)),
		spans: newSpanActuals(),
	}
	return rdd.WithTraceContext(jc, qs.id, "", qs.spans), qs
}

// SetSQL records the SQL text this execution was parsed from, for the
// event log.
func (q *QueryExecution) SetSQL(sql string) { q.SQLText = sql }

// finishEvent appends one event-log entry for a completed action, with the
// stage and worker actuals of the action's own span sink. No-op when
// observability is off.
func (q *QueryExecution) finishEvent(ec *physical.ExecContext, qs queryScope, action string, start time.Time, rows int64, err error) {
	if qs.id == "" {
		return
	}
	executed := q.executedPlan().String()
	stages, workers := qs.spans.actuals()
	ev := QueryEvent{
		ID:          qs.id,
		SQL:         q.SQLText,
		Action:      action,
		PlanHash:    fmt.Sprintf("%016x", planHash(executed)),
		Plan:        executed,
		Decisions:   decisionNotes(q),
		StartUnixMS: start.UnixMilli(),
		Millis:      float64(time.Since(start).Microseconds()) / 1e3,
		Rows:        rows,
		Spills:      ec.Pool.SpillCount(),
		Stages:      stages,
		Workers:     workers,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	q.engine.Events.Record(ev)
}

// decisionNotes renders the AQE decision list the way EXPLAIN ANALYZE
// annotates it ("adapted: ..." notes).
func decisionNotes(q *QueryExecution) []string {
	if len(q.Decisions) == 0 {
		return nil
	}
	out := make([]string, len(q.Decisions))
	for i, d := range q.Decisions {
		if d.Note != "" {
			out[i] = d.Note
		} else {
			out[i] = d.Kind
		}
	}
	return out
}

// spanActuals folds spans into per-stage and per-worker actuals as they
// arrive: it is one action's span sink (every span of the action, however
// many, with nothing retained but the totals), and EXPLAIN ANALYZE's
// cluster section feeds it the trace ring. Task spans are totalled per
// executing worker; worker "" is locally computed work. A coordinator-side
// dispatch span (the ".remote" wrapper) counts only when no worker-origin
// span covers the same (worker, partition): worker-origin spans carry the
// true compute time, dispatch spans compute plus round trip.
type spanActuals struct {
	mu       sync.Mutex
	stages   []StageActual
	workers  map[string]taskTotals
	dispatch map[workerPartition]taskTotals
	origin   map[workerPartition]bool
}

type workerPartition struct {
	worker    string
	partition int
}

type taskTotals struct {
	tasks              int
	rows, bytes, durNS int64
}

func (t taskTotals) plus(o taskTotals) taskTotals {
	return taskTotals{t.tasks + o.tasks, t.rows + o.rows, t.bytes + o.bytes, t.durNS + o.durNS}
}

func newSpanActuals() *spanActuals {
	return &spanActuals{
		workers:  make(map[string]taskTotals),
		dispatch: make(map[workerPartition]taskTotals),
		origin:   make(map[workerPartition]bool),
	}
}

// Append implements rdd.SpanSink.
func (a *spanActuals) Append(s metrics.Span) {
	a.mu.Lock()
	defer a.mu.Unlock()
	task := taskTotals{1, s.Records, s.Bytes, s.DurNS}
	k := workerPartition{s.Worker, s.Partition}
	switch {
	case s.Kind == metrics.SpanStage:
		a.stages = append(a.stages, StageActual{
			Name:   s.Name,
			Rows:   s.Records,
			Millis: float64(s.DurNS) / 1e6,
			Err:    s.Err,
		})
	case s.Kind != metrics.SpanTask:
	case s.Worker != "" && isDispatchSpan(s.Name):
		a.dispatch[k] = a.dispatch[k].plus(task)
	default:
		if s.Worker != "" {
			a.origin[k] = true
		}
		a.workers[s.Worker] = a.workers[s.Worker].plus(task)
	}
}

// actuals returns the stages in arrival order and the worker totals
// sorted by worker id.
func (a *spanActuals) actuals() ([]StageActual, []WorkerActual) {
	a.mu.Lock()
	defer a.mu.Unlock()
	totals := maps.Clone(a.workers)
	for k, d := range a.dispatch {
		if !a.origin[k] {
			totals[k.worker] = totals[k.worker].plus(d)
		}
	}
	ids := make([]string, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var workers []WorkerActual
	for _, id := range ids {
		t := totals[id]
		workers = append(workers, WorkerActual{
			Worker: id,
			Tasks:  t.tasks,
			Rows:   t.rows,
			Bytes:  t.bytes,
			Millis: float64(t.durNS) / 1e6,
		})
	}
	return append([]StageActual(nil), a.stages...), workers
}

// isDispatchSpan reports whether a task-span name is the coordinator-side
// RemoteOrLocal wrapper rather than worker-origin compute.
func isDispatchSpan(name string) bool {
	return len(name) > 7 && name[len(name)-7:] == ".remote"
}
