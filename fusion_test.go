package sparksql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Whole-stage fusion property tests. These extend the spill harness in
// spill_test.go (spillConfig, rowsText, canonText, spillCollect) with CACHED
// tables — fusion only engages over a batch scan (colfile tables are covered
// by colfile_vectorized_test.go) — and compare every
// fused shape against the row-at-a-time path: group-key specializations
// (int64, string, (int64,int64) pair, generic, global), every aggregate
// function, broadcast-join probes on int, string, and pair keys under INNER
// and LEFT OUTER, string/date kernels in the pipeline, and memory budgets
// down to one byte (the fused aggregate's partials feed the same
// grace-partitioned spill merge as the row path's).

// fusedConfig is spillConfig plus the row/vectorized switch: vectorized=false
// is the golden row-at-a-time engine, vectorized=true runs the fused plans
// (Fusion defaults on).
func fusedConfig(budget int64, vectorized bool) Config {
	cfg := spillConfig(budget)
	cfg.Vectorized = vectorized
	return cfg
}

// setupFusedTables mirrors setupSpillTables but caches every table and adds
// what the fused shapes need: a low-cardinality string key (word), a second
// int key (sub) for pair grouping and pair-key joins, a DATE column for the
// date kernels, and NULLs sprinkled through every key column.
func setupFusedTables(t testing.TB, ctx *Context) {
	t.Helper()
	events := StructType{}.
		Add("id", IntType, false).
		Add("grp", IntType, true).
		Add("sub", IntType, true).
		Add("word", StringType, true).
		Add("name", StringType, false).
		Add("day", DateType, false).
		Add("val", DoubleType, true)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	rows := make([]Row, spillRows)
	for i := range rows {
		r := Row{
			int32(i),
			int32(i % 80),
			int32(i % 7),
			words[(i*31)%len(words)],
			fmt.Sprintf("n%05d", (i*7919)%spillRows),
			int32(16071 + i%700), // 2014-01-01 .. late 2015
			float64(i%997) * 1.5,
		}
		switch i % 53 { // NULLs in every key/value column the shapes group or join on
		case 0:
			r[1] = nil
		case 1:
			r[2] = nil
		case 2:
			r[3] = nil
		case 3:
			r[6] = nil
		}
		rows[i] = r
	}
	cacheTempTable(t, ctx, events, rows, "events")

	dim := StructType{}.
		Add("grp", IntType, false).
		Add("label", StringType, false)
	var drows []Row
	for g := 0; g < 80; g += 2 {
		drows = append(drows, Row{int32(g), fmt.Sprintf("label%02d", g)})
	}
	cacheTempTable(t, ctx, dim, drows, "dim")

	// Two of the six words are missing so inner string joins drop rows and
	// LEFT OUTER null-extends them.
	dimw := StructType{}.
		Add("word", StringType, false).
		Add("wlabel", StringType, false)
	var wrows []Row
	for _, w := range words[:4] {
		wrows = append(wrows, Row{w, "W:" + w})
	}
	cacheTempTable(t, ctx, dimw, wrows, "dimw")

	// Sparse (grp, sub) pairs for the pair-key probe table.
	dimp := StructType{}.
		Add("grp", IntType, false).
		Add("sub", IntType, false).
		Add("plabel", StringType, false)
	var prows []Row
	for g := 0; g < 80; g += 3 {
		for s := 0; s < 7; s += 2 {
			prows = append(prows, Row{int32(g), int32(s), fmt.Sprintf("p%02d-%d", g, s)})
		}
	}
	cacheTempTable(t, ctx, dimp, prows, "dimp")
}

func cacheTempTable(t testing.TB, ctx *Context, schema StructType, rows []Row, name string) {
	t.Helper()
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Cache(); err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable(name)
}

// fusedExactQueries must match the row path byte for byte, in order.
var fusedExactQueries = []string{
	"SELECT grp, count(*), sum(val) FROM events WHERE id < 2000 GROUP BY grp ORDER BY grp",
	"SELECT word, min(name), max(name) FROM events GROUP BY word ORDER BY word",
	"SELECT name, val FROM events WHERE grp = 7 ORDER BY name",
}

// fusedCanonQueries are compared as sorted row sets (aggregate emission order
// is map-random on the row path). Together they hit every group-table and
// probe-table specialization, the generic fallbacks, and the string/date
// kernels feeding a fused sink.
var fusedCanonQueries = []string{
	// i64 group key, full numeric aggregate set.
	"SELECT grp, count(*), sum(val), avg(val), min(val), max(val) FROM events GROUP BY grp",
	// string group key; first() checks merge-order sensitivity.
	"SELECT word, count(*), sum(val), first(name) FROM events GROUP BY word",
	// (i64, i64) pair group key.
	"SELECT grp, sub, count(*), avg(val) FROM events GROUP BY grp, sub",
	// generic (boxed) group key: Double.
	"SELECT val, count(*) FROM events GROUP BY val",
	// global aggregate, string min/max.
	"SELECT count(*), sum(val), avg(val), min(name), max(name) FROM events WHERE grp > 10",
	// count(DISTINCT) buffers.
	"SELECT grp, count(DISTINCT word) FROM events GROUP BY grp",
	// date kernels as group keys and as a filter.
	"SELECT year(day), month(day), count(*) FROM events GROUP BY year(day), month(day)",
	"SELECT grp, count(*) FROM events WHERE year(day) = 2015 GROUP BY grp",
	// string kernel filter into a fused sink.
	"SELECT word, count(*) FROM events WHERE name LIKE 'n01%' GROUP BY word",
	// broadcast probes: int, string, and pair keys; INNER and LEFT OUTER.
	"SELECT e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp WHERE e.id < 1500",
	"SELECT e.name, d.label FROM events e LEFT JOIN dim d ON e.grp = d.grp WHERE e.id < 500",
	"SELECT e.name, w.wlabel FROM events e JOIN dimw w ON e.word = w.word WHERE e.id < 1500",
	"SELECT e.name, w.wlabel FROM events e LEFT JOIN dimw w ON e.word = w.word WHERE e.id < 500",
	"SELECT e.name, p.plabel FROM events e JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub",
	"SELECT e.name, p.plabel FROM events e LEFT JOIN dimp p ON e.grp = p.grp AND e.sub = p.sub WHERE e.id < 500",
	// aggregate above a join: the probe fuses, the sink sits higher.
	"SELECT d.label, count(*) FROM events e JOIN dim d ON e.grp = d.grp GROUP BY d.label",
}

// randomFusedQueries derives extra grouped-aggregate shapes from a fixed
// seed: random key shape, random selectivity.
func randomFusedQueries() []string {
	rng := rand.New(rand.NewSource(0xF05E))
	keys := []string{"grp", "sub", "word", "grp, sub"}
	var out []string
	for i := 0; i < 4; i++ {
		k := keys[rng.Intn(len(keys))]
		x := rng.Intn(spillRows)
		out = append(out, fmt.Sprintf(
			"SELECT %s, count(*), sum(val), min(name) FROM events WHERE id < %d GROUP BY %s", k, x, k))
	}
	return out
}

// TestFusedPipelineByteIdentical is the acceptance property: at every budget
// — unbounded down to one byte — the fused engine's results are byte-identical
// to the row path's, spilling really happens at the bounded budgets, and no
// spill file survives any query.
func TestFusedPipelineByteIdentical(t *testing.T) {
	canonQueries := append(append([]string{}, fusedCanonQueries...), randomFusedQueries()...)

	golden := NewContextWithConfig(fusedConfig(0, false))
	setupFusedTables(t, golden)
	wantExact := make(map[string]string, len(fusedExactQueries))
	for _, q := range fusedExactQueries {
		wantExact[q] = rowsText(spillCollect(t, golden, q))
	}
	wantCanon := make(map[string]string, len(canonQueries))
	for _, q := range canonQueries {
		wantCanon[q] = canonText(spillCollect(t, golden, q))
	}

	budgets := []int64{0, 1, 127, 1 << 10, 16 << 10}
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
			ctx := NewContextWithConfig(fusedConfig(budget, true))
			setupFusedTables(t, ctx)
			ctx.SpillFS().WriteNanosPerByte = 0
			ctx.SpillFS().ReadNanosPerByte = 0
			for _, q := range fusedExactQueries {
				if got := rowsText(spillCollect(t, ctx, q)); got != wantExact[q] {
					t.Errorf("%q diverged from the row path at budget %d", q, budget)
				}
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
				}
			}
			for _, q := range canonQueries {
				if got := canonText(spillCollect(t, ctx, q)); got != wantCanon[q] {
					t.Errorf("%q diverged from the row path at budget %d", q, budget)
				}
				if nf := ctx.SpillFS().NumFiles(); nf != 0 {
					t.Fatalf("%q left %d spill files at budget %d", q, nf, budget)
				}
			}
			if budget > 0 {
				if n := ctx.Metrics().Counter("memory.spill.count").Load(); n == 0 {
					t.Fatalf("budget %d forced no spills over %d-row inputs", budget, spillRows)
				}
			}
		})
	}
}

// TestFusionExplain pins the observability contract: fused plans announce
// themselves (operator name + `fused: true`), the Fusion knob removes them,
// and EXPLAIN ANALYZE annotates the fused operators with actuals.
func TestFusionExplain(t *testing.T) {
	ctx := NewContextWithConfig(fusedConfig(0, true))
	setupFusedTables(t, ctx)

	mustExplain := func(q string) string {
		t.Helper()
		df, err := ctx.SQL(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out, err := df.Explain()
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return out
	}

	agg := mustExplain("SELECT grp, count(*), sum(val) FROM events GROUP BY grp")
	if !strings.Contains(agg, "FusedHashAggregate") || !strings.Contains(agg, "(fused: true)") {
		t.Fatalf("aggregate plan not fused:\n%s", agg)
	}
	join := mustExplain("SELECT e.name, d.label FROM events e JOIN dim d ON e.grp = d.grp")
	if !strings.Contains(join, "FusedBroadcastHashJoin") {
		t.Fatalf("broadcast join plan not fused:\n%s", join)
	}

	df, err := ctx.SQL("SELECT grp, count(*) FROM events WHERE id < 2000 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(analyzed, "FusedHashAggregate") || !strings.Contains(analyzed, "actual:") {
		t.Fatalf("EXPLAIN ANALYZE missing fused actuals:\n%s", analyzed)
	}

	// The knob: Fusion=false keeps vectorized pipelines but no fused sinks.
	cfg := fusedConfig(0, true)
	cfg.Fusion = false
	off := NewContextWithConfig(cfg)
	setupFusedTables(t, off)
	odf, err := off.SQL("SELECT grp, count(*) FROM events GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	oout, err := odf.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(oout, "Fused") {
		t.Fatalf("Fusion=false still produced fused operators:\n%s", oout)
	}
	if !strings.Contains(oout, "VectorizedPipeline") {
		t.Fatalf("Fusion=false lost vectorization:\n%s", oout)
	}
}
