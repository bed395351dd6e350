package sparksql

import (
	"testing"

	"repro/internal/row"
	"repro/internal/types"
)

// TestEventLogKeepsEveryStageWhenRingWraps runs a query that emits far more
// spans than the engine's trace ring holds (two 5000-partition exchanges,
// about 10k task spans against a 4096-span ring) and checks that its
// event-log entry still records every stage and every task: the entry is
// built from the action's own span capture, not from what the ring
// happens to retain.
func TestEventLogKeepsEveryStageWhenRingWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShufflePartitions = 5000
	cfg.Adaptive = false
	ctx := NewContextWithConfig(cfg)
	schema := types.StructType{}.
		Add("k", types.Long, false).
		Add("v", types.Long, false)
	rows := make([]Row, 200)
	for i := range rows {
		rows[i] = row.Row{int64(i % 7), int64(i)}
	}
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("kv")
	q, err := ctx.SQL("SELECT k, COUNT(*) FROM kv GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}

	tasks := ctx.Metrics().Counter("rdd.tasks.run")
	spans := ctx.Trace().Total()
	before := tasks.Load()
	got, err := q.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("got %d groups, want 7", len(got))
	}
	ran := tasks.Load() - before
	if emitted := ctx.Trace().Total() - spans; emitted <= int64(ctx.Trace().Len()) {
		t.Fatalf("query emitted %d spans; the test needs more than the ring's %d", emitted, ctx.Trace().Len())
	}

	events := ctx.EventLog().Events()
	ev := events[len(events)-1]
	if ev.Action != "collect" || ev.Rows != 7 {
		t.Fatalf("unexpected final event %+v", ev)
	}
	if len(ev.Stages) != 3 {
		t.Fatalf("event records %d stages, want 3: %+v", len(ev.Stages), ev.Stages)
	}
	var recorded int64
	for _, w := range ev.Workers {
		recorded += int64(w.Tasks)
	}
	if recorded != ran {
		t.Fatalf("event records %d task spans, the query ran %d tasks", recorded, ran)
	}
}
