package sparksql_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	sparksql "repro"
	"repro/internal/experiments"
)

// Differential suite for the columnar scan of colfile tables: the batch
// path (vectorized pipelines and fused operators reading
// datasource.ColumnarScan batches) must return byte-identical rows to the
// row path it replaced, and Figure 8 over colfile must plan onto it.

// colfileConfigs are the engine settings the suite compares. "row" is the
// reference: the boxed row scan under row-at-a-time operators.
var colfileConfigs = []struct {
	name string
	set  func(*sparksql.Config)
}{
	{"row", func(c *sparksql.Config) { c.Vectorized = false }},
	{"vectorized+fusion", func(c *sparksql.Config) {}},
	{"vectorized", func(c *sparksql.Config) { c.Fusion = false }},
	{"no-pushdown", func(c *sparksql.Config) { c.SourcePushdown = false }},
}

// writeColfileTables writes the suite's two colfile tables under dir.
//
// facts: 12000 rows in row groups of 5000, so groups hold one or two
// batches; NULLs in every column; the DOUBLE chunk of group 1 (rows
// 5000-9999) is all NULL; i rises with the row index, so min/max skipping
// drops whole groups for range filters on it.
//
// dims: 60 rows keyed by k, the broadcast side of the joins.
func writeColfileTables(t *testing.T, dir string) (facts, dims string) {
	t.Helper()
	ctx := sparksql.NewContext()
	factSchema := sparksql.StructType{}.
		Add("flag", sparksql.BooleanType, true).
		Add("i", sparksql.IntType, true).
		Add("l", sparksql.LongType, true).
		Add("d", sparksql.DoubleType, true).
		Add("s", sparksql.StringType, true).
		Add("day", sparksql.DateType, true).
		Add("ts", sparksql.TimestampType, true).
		Add("k", sparksql.IntType, true)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "alphabet"}
	rows := make([]sparksql.Row, 12000)
	for i := range rows {
		r := sparksql.Row{
			i%3 == 0,
			int32(i),
			int64((i * 7919) % 100000),
			float64(i%997) * 0.5,
			words[(i*31)%len(words)],
			int32(16071 + i%700),
			int64(1_400_000_000_000_000 + int64(i)*86_400_000_007%(1<<42)),
			int32(i % 50),
		}
		for j, m := range []int{17, 29, 23, 31, 19, 37, 41, 43} {
			if i%m == 0 {
				r[j] = nil
			}
		}
		if i >= 5000 && i < 10000 {
			r[3] = nil
		}
		rows[i] = r
	}
	dimSchema := sparksql.StructType{}.
		Add("k", sparksql.IntType, true).
		Add("name", sparksql.StringType, true)
	dimRows := make([]sparksql.Row, 60)
	for k := range dimRows {
		dimRows[k] = sparksql.Row{int32(k), fmt.Sprintf("dim-%02d", k)}
		if k%11 == 0 {
			dimRows[k][1] = nil
		}
	}
	dimRows[13][0] = nil

	facts, dims = filepath.Join(dir, "facts.gcf"), filepath.Join(dir, "dims.gcf")
	for _, tbl := range []struct {
		path   string
		schema sparksql.StructType
		rows   []sparksql.Row
		group  int
	}{{facts, factSchema, rows, 5000}, {dims, dimSchema, dimRows, 0}} {
		df, err := ctx.CreateDataFrame(tbl.schema, tbl.rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := df.Write().RowGroupSize(tbl.group).ColFile(tbl.path); err != nil {
			t.Fatal(err)
		}
	}
	return facts, dims
}

// colfileContext registers the two tables under cfg with a fixed fan-out,
// so partitioning (and with it row order) is the same in every config.
func colfileContext(t *testing.T, cfg sparksql.Config, facts, dims string) *sparksql.Context {
	t.Helper()
	cfg.Parallelism = 4
	cfg.ShufflePartitions = 4
	ctx := sparksql.NewContextWithConfig(cfg)
	for name, path := range map[string]string{"facts": facts, "dims": dims} {
		df, err := ctx.Read().ColFile(path)
		if err != nil {
			t.Fatal(err)
		}
		df.RegisterTempTable(name)
	}
	return ctx
}

// colfileQueries are the statements the configs must agree on. Unordered
// ones compare in scan order; aggregates and joins sort on every output.
var colfileQueries = []string{
	"SELECT flag, i, l, d, s, day, ts, k FROM facts",
	"SELECT i, s, d FROM facts WHERE i > 10500",
	"SELECT s FROM facts WHERE l > 50000",
	"SELECT i + 1, l * 2, d * 2.0 FROM facts WHERE d IS NOT NULL AND i BETWEEN 4000 AND 6000",
	"SELECT s, day FROM facts WHERE flag = true AND s IN ('alpha', 'gamma')",
	"SELECT i FROM facts WHERE s LIKE 'alpha%'",
	"SELECT i, ts FROM facts WHERE day >= '2014-06-01' AND day < '2014-07-01'",
	"SELECT i FROM facts WHERE d IS NULL AND k = 7",
	"SELECT ts FROM facts WHERE ts IS NOT NULL AND i = 4500",
	"SELECT COUNT(*) FROM facts WHERE i > 100000",
	"SELECT COUNT(*), SUM(d), MIN(s), MAX(ts) FROM facts WHERE l < 20000",
	"SELECT s, COUNT(*), SUM(l), AVG(d), MIN(ts), MAX(day) FROM facts GROUP BY s ORDER BY s",
	"SELECT k, COUNT(d), SUM(i) FROM facts WHERE flag = false GROUP BY k ORDER BY k",
	"SELECT k, day, COUNT(*) FROM facts WHERE i < 3000 GROUP BY k, day ORDER BY k, day",
	"SELECT flag, MIN(s), MAX(l) FROM facts GROUP BY flag ORDER BY flag",
	"SELECT f.i, f.s, d.name FROM facts f JOIN dims d ON f.k = d.k WHERE f.l > 90000 ORDER BY f.i",
	"SELECT f.i, d.name FROM facts f LEFT OUTER JOIN dims d ON f.k = d.k WHERE f.i < 300 ORDER BY f.i",
	"SELECT d.name, COUNT(*), SUM(f.d) FROM facts f JOIN dims d ON f.k = d.k GROUP BY d.name ORDER BY d.name",
}

// typedText renders rows with each value's Go type, so an int32 that comes
// back as int64 (or a NULL as a zero) is a difference.
func typedText(rows []sparksql.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				sb.WriteByte('\t')
			}
			fmt.Fprintf(&sb, "%T:%v", v, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func collectRows(t *testing.T, ctx *sparksql.Context, q string) []sparksql.Row {
	t.Helper()
	df, err := ctx.SQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows
}

func explainOf(t *testing.T, ctx *sparksql.Context, q string) string {
	t.Helper()
	df, err := ctx.SQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	s, err := df.Explain()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return s
}

// Every config returns byte-identical rows over colfile tables.
func TestColfileVectorizedByteIdentical(t *testing.T) {
	facts, dims := writeColfileTables(t, t.TempDir())
	ctxs := make([]*sparksql.Context, len(colfileConfigs))
	for i, c := range colfileConfigs {
		cfg := sparksql.DefaultConfig()
		c.set(&cfg)
		ctxs[i] = colfileContext(t, cfg, facts, dims)
	}
	for _, q := range colfileQueries {
		want := typedText(collectRows(t, ctxs[0], q))
		if want == "" && !strings.Contains(q, "COUNT") {
			t.Fatalf("%s: the reference returned no rows; the query tests nothing", q)
		}
		for i, c := range colfileConfigs[1:] {
			if got := typedText(collectRows(t, ctxs[i+1], q)); got != want {
				t.Errorf("%s\n%s differs from the row path:\n%s\nwant:\n%s", q, c.name, clip(got), clip(want))
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 600 {
		return s[:600] + "..."
	}
	return s
}

// The batch path actually runs: under the default config each shape plans
// onto the vectorized or fused operator directly over the colfile scan.
func TestColfileVectorizedPlans(t *testing.T) {
	facts, dims := writeColfileTables(t, t.TempDir())
	ctx := colfileContext(t, sparksql.DefaultConfig(), facts, dims)
	for q, want := range map[string]string{
		colfileQueries[1]:  "VectorizedPipeline",
		colfileQueries[11]: "FusedHashAggregate",
		colfileQueries[15]: "FusedBroadcastHashJoin",
	} {
		plan := physicalPlan(explainOf(t, ctx, q))
		if !strings.Contains(plan, want) {
			t.Errorf("%s: physical plan lacks %s:\n%s", q, want, plan)
		}
		checkColfileScansBatched(t, q, plan)
	}
}

// figure8Queries lists the ten Figure 8 statements in class order.
func figure8Queries() []string {
	var qs []string
	for _, x := range experiments.Q1Params {
		qs = append(qs, experiments.Q1(x))
	}
	for _, p := range experiments.Q2Params {
		qs = append(qs, experiments.Q2(p))
	}
	for _, c := range experiments.Q3Params {
		qs = append(qs, experiments.Q3(c))
	}
	return append(qs, experiments.Q4Query)
}

func physicalPlan(explain string) string {
	if i := strings.Index(explain, "== Physical Plan =="); i >= 0 {
		return strings.TrimSpace(explain[i+len("== Physical Plan =="):])
	}
	return explain
}

// checkColfileScansBatched requires every colfile scan in a physical plan
// to feed a batch operator, and every "scan not columnar" fallback to sit
// above something other than a scan (Q3's pipeline over its join).
func checkColfileScansBatched(t *testing.T, q, plan string) {
	t.Helper()
	lines := strings.Split(plan, "\n")
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	for i, l := range lines {
		text := strings.TrimSpace(l)
		if strings.Contains(l, "scan not columnar") && i+1 < len(lines) &&
			strings.HasPrefix(strings.TrimSpace(lines[i+1]), "Scan ") {
			t.Errorf("%s: a scan falls back to the row pipeline:\n%s", q, plan)
		}
		if !strings.HasPrefix(text, "Scan Source colfile") {
			continue
		}
		parent := ""
		for k := i - 1; k >= 0; k-- {
			if indent(lines[k]) < indent(l) {
				parent = strings.TrimSpace(lines[k])
				break
			}
		}
		if !strings.HasPrefix(parent, "VectorizedPipeline") && !strings.HasPrefix(parent, "Fused") {
			t.Errorf("%s: colfile scan feeds %q, not a batch operator:\n%s", q, parent, plan)
		}
	}
}

// All ten Figure 8 queries over colfile read their scans through the batch
// path under DefaultConfig, Q1, Q2 and Q4 with no fallback at all; under
// SharkConfig the plans are exactly the row plans pinned in
// testdata/figure8_shark_plans.golden.
func TestFigure8ColfileScansVectorize(t *testing.T) {
	a, err := experiments.NewAMPLab(t.TempDir(), 2_000, 6_000)
	if err != nil {
		t.Fatal(err)
	}
	spark, err := a.NewContext(false)
	if err != nil {
		t.Fatal(err)
	}
	shark, err := a.NewContext(true)
	if err != nil {
		t.Fatal(err)
	}
	ids := regexp.MustCompile(`#\d+`)
	var sharkPlans strings.Builder
	for i, q := range figure8Queries() {
		plan := physicalPlan(explainOf(t, spark, q))
		checkColfileScansBatched(t, q, plan)
		if isQ3 := i >= 6 && i < 9; !isQ3 && strings.Contains(plan, "fallback:") {
			t.Errorf("%s: unexpected fallback:\n%s", q, plan)
		}
		fmt.Fprintf(&sharkPlans, "-- %s\n%s\n", strings.Join(strings.Fields(q), " "),
			ids.ReplaceAllString(physicalPlan(explainOf(t, shark, q)), "#N"))
	}
	golden := filepath.Join("testdata", "figure8_shark_plans.golden")
	// -update is the flag the package's own golden tests define.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(golden, []byte(sharkPlans.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sharkPlans.String(); got != string(want) {
		t.Errorf("Shark-mode Figure 8 plans changed:\n%s\nwant:\n%s", got, want)
	}
}
