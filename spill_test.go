package sparksql

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/row"
)

// Spill property tests: under any MemoryBudget — including one byte, where
// every blocking operator holds at most one row before spilling — query
// results must equal an engine-free oracle and the unbudgeted run, and no
// spill file may survive a query, whether it completes or is cancelled.

const spillRows = 4000

func spillConfig(budget int64) Config {
	cfg := DefaultConfig()
	// Fixed fan-out so partitioning (and thus row emission order) is
	// identical across host core counts and between golden/budgeted runs.
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	cfg.MemoryBudget = budget
	return cfg
}

// spillEvents generates the `events` rows: spillRows rows, ~100 B of
// object state each — hundreds of KB total, ≥10× the largest budget under
// test. Names are a scrambled permutation so ORDER BY does real work; 80
// groups of ~50 rows each so sorts see heavy duplicate keys.
func spillEvents() []Row {
	rows := make([]Row, spillRows)
	for i := range rows {
		rows[i] = Row{
			int32(i),
			int32(i % 80),
			fmt.Sprintf("n%05d", (i*7919)%spillRows),
			float64(i%997) * 1.5,
		}
	}
	return rows
}

// spillDim generates the small `dim` join side: the even groups, labelled.
func spillDim() []Row {
	var rows []Row
	for g := 0; g < 80; g += 2 {
		rows = append(rows, Row{int32(g), fmt.Sprintf("label%02d", g)})
	}
	return rows
}

// setupSpillTables registers `events` and `dim`.
func setupSpillTables(t testing.TB, ctx *Context) {
	t.Helper()
	events := StructType{}.
		Add("id", IntType, false).
		Add("grp", IntType, false).
		Add("name", StringType, false).
		Add("val", DoubleType, false)
	df, err := ctx.CreateDataFrame(events, spillEvents())
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("events")

	dim := StructType{}.
		Add("grp", IntType, false).
		Add("label", StringType, false)
	ddf, err := ctx.CreateDataFrame(dim, spillDim())
	if err != nil {
		t.Fatal(err)
	}
	ddf.RegisterTempTable("dim")
}

// spillExactQueries must match the golden run row for row, in order —
// including the relative order of ORDER BY ties, which only survives
// spilling because the external sort is stable end to end.
var spillExactQueries = []string{
	"SELECT name, grp, val FROM events ORDER BY grp, name",
	"SELECT grp, val FROM events ORDER BY grp", // tie-heavy: stability must survive spilling
}

// spillCanonQueries are compared as sorted row sets. Aggregation and
// DISTINCT emission order is nondeterministic even fully in memory (the
// partial-aggregation phase iterates a Go map), and the budget switches the
// join's physical plan to a sort-merge join — so for these the contract is
// set equality plus deterministic values. first(name) still checks
// order-sensitivity: its per-group VALUE depends on merge order, which the
// spill path must reproduce exactly.
var spillCanonQueries = []string{
	"SELECT grp, count(*), sum(val), avg(val), min(name), max(name) FROM events GROUP BY grp",
	"SELECT grp, first(name) FROM events GROUP BY grp",
	"SELECT DISTINCT grp FROM events",
	"SELECT e.name, e.grp, d.label FROM events e JOIN dim d ON e.grp = d.grp",
	"SELECT e.name, d.label FROM events e LEFT JOIN dim d ON e.grp = d.grp WHERE e.id < 500",
}

// spillOracle computes the expected rows of every spill-suite query with
// plain loops over the generated tables, without the engine. ORDER BY ties
// keep input order: the engine's sort is stable and its partitions
// concatenate in input order. first(name) is the group's first row in
// input order. Every val is a multiple of 0.5 and every sum stays far below
// 2^53, so the float sums are exact in any order.
func spillOracle() map[string][]Row {
	events, dim := spillEvents(), spillDim()
	col := func(rows []Row, cols ...int) []Row {
		out := make([]Row, len(rows))
		for i, r := range rows {
			o := make(Row, len(cols))
			for j, c := range cols {
				o[j] = r[c]
			}
			out[i] = o
		}
		return out
	}
	byGrpName := append([]Row(nil), events...)
	sort.SliceStable(byGrpName, func(i, j int) bool {
		a, b := byGrpName[i], byGrpName[j]
		if a[1] != b[1] {
			return a[1].(int32) < b[1].(int32)
		}
		return a[2].(string) < b[2].(string)
	})
	byGrp := append([]Row(nil), events...)
	sort.SliceStable(byGrp, func(i, j int) bool { return byGrp[i][1].(int32) < byGrp[j][1].(int32) })

	type group struct {
		count         int64
		sum           float64
		min, max, fst string
	}
	groups := make(map[int32]*group)
	for _, r := range events {
		k, name := r[1].(int32), r[2].(string)
		g, ok := groups[k]
		if !ok {
			g = &group{min: name, max: name, fst: name}
			groups[k] = g
		}
		g.count++
		g.sum += r[3].(float64)
		g.min = min(g.min, name)
		g.max = max(g.max, name)
	}
	var agg, first, distinct []Row
	for k, g := range groups {
		agg = append(agg, Row{k, g.count, g.sum, g.sum / float64(g.count), g.min, g.max})
		first = append(first, Row{k, g.fst})
		distinct = append(distinct, Row{k})
	}

	labels := make(map[int32]string)
	for _, d := range dim {
		labels[d[0].(int32)] = d[1].(string)
	}
	var inner, left []Row
	for _, r := range events {
		label, ok := labels[r[1].(int32)]
		if ok {
			inner = append(inner, Row{r[2], r[1], label})
		}
		if r[0].(int32) < 500 {
			if ok {
				left = append(left, Row{r[2], label})
			} else {
				left = append(left, Row{r[2], nil})
			}
		}
	}
	return map[string][]Row{
		spillExactQueries[0]: col(byGrpName, 2, 1, 3),
		spillExactQueries[1]: col(byGrp, 1, 3),
		spillCanonQueries[0]: agg,
		spillCanonQueries[1]: first,
		spillCanonQueries[2]: distinct,
		spillCanonQueries[3]: inner,
		spillCanonQueries[4]: left,
	}
}

func spillCollect(t *testing.T, ctx *Context, query string) []Row {
	t.Helper()
	df, err := ctx.SQL(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return rows
}

func rowsText(rows []Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = row.FormatValue(v)
		}
		lines[i] = strings.Join(parts, "\t")
	}
	return strings.Join(lines, "\n")
}

func canonText(rows []Row) string {
	lines := strings.Split(rowsText(rows), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSpillPropertyRandomBudgets runs the workload at fixed and seeded
// random budgets — from one byte to 16 KB against hundreds of KB of data —
// and checks every result against the engine-free oracle and against an
// unbudgeted golden run, that spilling actually occurred, and that no spill
// file survives any query.
func TestSpillPropertyRandomBudgets(t *testing.T) {
	oracle := spillOracle()
	golden := NewContextWithConfig(spillConfig(0))
	setupSpillTables(t, golden)
	wantExact := make(map[string]string, len(spillExactQueries))
	for _, q := range spillExactQueries {
		wantExact[q] = rowsText(spillCollect(t, golden, q))
		if want := rowsText(oracle[q]); wantExact[q] != want {
			t.Fatalf("%q: unbudgeted run differs from the oracle:\n%s\nwant:\n%s", q, wantExact[q], want)
		}
	}
	wantCanon := make(map[string]string, len(spillCanonQueries))
	for _, q := range spillCanonQueries {
		wantCanon[q] = canonText(spillCollect(t, golden, q))
		if want := canonText(oracle[q]); wantCanon[q] != want {
			t.Fatalf("%q: unbudgeted run differs from the oracle:\n%s\nwant:\n%s", q, wantCanon[q], want)
		}
	}

	budgets := []int64{1, 127, 1 << 10, 16 << 10}
	rng := rand.New(rand.NewSource(0x5B111))
	for i := 0; i < 3; i++ {
		budgets = append(budgets, 1+rng.Int63n(16<<10))
	}

	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			if budget == 1 && testing.Short() {
				t.Skip("one-byte budget spills per row; skipped in -short")
			}
			ctx := NewContextWithConfig(spillConfig(budget))
			setupSpillTables(t, ctx)
			ctx.SpillFS().WriteNanosPerByte = 0
			ctx.SpillFS().ReadNanosPerByte = 0
			for _, q := range spillExactQueries {
				if got := rowsText(spillCollect(t, ctx, q)); got != wantExact[q] {
					t.Errorf("%q diverged from the oracle at budget %d", q, budget)
				}
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
				}
			}
			for _, q := range spillCanonQueries {
				if got := canonText(spillCollect(t, ctx, q)); got != wantCanon[q] {
					t.Errorf("%q diverged from the oracle at budget %d", q, budget)
				}
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
				}
			}
			if n := ctx.Metrics().Counter("memory.spill.count").Load(); n == 0 {
				t.Fatalf("budget %d forced no spills over %d-row inputs", budget, spillRows)
			}
		})
	}
}

// TestSpillExplainAnalyze checks the observability contract: a budgeted run
// annotates spilling operators with `spilled: N B, R runs`, and the analyze
// run itself leaves no spill files behind.
func TestSpillExplainAnalyze(t *testing.T) {
	ctx := NewContextWithConfig(spillConfig(2 << 10))
	setupSpillTables(t, ctx)
	ctx.SpillFS().WriteNanosPerByte = 0
	ctx.SpillFS().ReadNanosPerByte = 0
	df, err := ctx.SQL("SELECT grp, count(*), sum(val) FROM events GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spilled:") {
		t.Fatalf("EXPLAIN ANALYZE missing spill annotation:\n%s", out)
	}
	if nf := ctx.SpillFS().NumFiles(); nf != 0 {
		t.Fatalf("EXPLAIN ANALYZE left %d spill files", nf)
	}
	// An unbudgeted run must not mention spilling.
	g := NewContextWithConfig(spillConfig(0))
	setupSpillTables(t, g)
	gdf, err := g.SQL("SELECT grp, count(*), sum(val) FROM events GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	gout, err := gdf.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(gout, "spilled:") {
		t.Fatalf("unbudgeted EXPLAIN ANALYZE mentions spilling:\n%s", gout)
	}
}

// TestEventLogSpillsPerQuery checks that each event-log entry counts the
// spills of its own query, not the process total.
func TestEventLogSpillsPerQuery(t *testing.T) {
	ctx := NewContextWithConfig(spillConfig(2 << 10))
	setupSpillTables(t, ctx)
	ctx.SpillFS().WriteNanosPerByte = 0
	ctx.SpillFS().ReadNanosPerByte = 0
	spillCollect(t, ctx, "SELECT grp, count(*), sum(val) FROM events GROUP BY grp")
	spillCollect(t, ctx, "SELECT id FROM events WHERE id < 10")
	events := ctx.EventLog().Events()
	if len(events) < 2 {
		t.Fatalf("event log has %d entries, want 2", len(events))
	}
	grouped, filtered := events[len(events)-2], events[len(events)-1]
	if grouped.Spills == 0 {
		t.Fatalf("spilling GROUP BY recorded no spills: %+v", grouped)
	}
	if filtered.Spills != 0 {
		t.Fatalf("filter-only query recorded %d spills, want 0", filtered.Spills)
	}
}

// TestSpillCleanupOnCancel cancels a query mid-spill (slow simulated spill
// writes guarantee it cannot finish in time) and checks that every spill
// file is deleted on the cancellation path too.
func TestSpillCleanupOnCancel(t *testing.T) {
	ctx := NewContextWithConfig(spillConfig(512))
	setupSpillTables(t, ctx)
	ctx.SpillFS().WriteNanosPerByte = 2000 // ~0.5 MB/s: spilling dominates the query
	ctx.SpillFS().ReadNanosPerByte = 0
	df, err := ctx.SQL("SELECT name, grp, val FROM events ORDER BY grp, name")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := df.CollectContext(cctx); err == nil {
		t.Fatal("query with a 15ms deadline over ~1s of simulated spill I/O should have been cancelled")
	}
	if nf := ctx.SpillFS().NumFiles(); nf != 0 {
		t.Fatalf("cancelled query left %d spill files", nf)
	}
}
