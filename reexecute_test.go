package sparksql

import (
	"fmt"
	"testing"
)

// A query's RDD may be executed more than once: a caller collects
// df.ToRDD() repeatedly, and a cluster worker re-runs its cached plan for
// every repeated statement. Shuffle outputs are memoized across those runs,
// so an operator that modified its shuffle input would change the next
// run's answer. Every collect must equal the first.
func TestRDDReexecutionIsStable(t *testing.T) {
	queries := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT count(*) FROM t WHERE val > 100", true},
		{"SELECT grp, sum(val), avg(val), min(name), max(name), first(name), count(DISTINCT name) FROM t GROUP BY grp", false},
		{"SELECT DISTINCT grp FROM t", false},
		{"SELECT name, grp FROM t ORDER BY grp, name", true},
	}
	for _, cached := range []bool{false, true} {
		ctx := NewContext()
		schema := StructType{}.
			Add("grp", IntType, false).
			Add("name", StringType, false).
			Add("val", DoubleType, false)
		rows := make([]Row, 3000)
		for i := range rows {
			rows[i] = Row{int32(i % 40), fmt.Sprintf("n%04d", (i*7919)%1000), float64(i%311) * 1.5}
		}
		df, err := ctx.CreateDataFrame(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			if _, err := df.Cache(); err != nil {
				t.Fatal(err)
			}
		}
		df.RegisterTempTable("t")
		for _, q := range queries {
			qdf, err := ctx.SQL(q.sql)
			if err != nil {
				t.Fatalf("%q: %v", q.sql, err)
			}
			r, err := qdf.ToRDD()
			if err != nil {
				t.Fatalf("%q: %v", q.sql, err)
			}
			var first string
			for run := 0; run < 3; run++ {
				got, err := r.Collect()
				if err != nil {
					t.Fatalf("%q run %d: %v", q.sql, run, err)
				}
				text := canonText(got)
				if q.ordered {
					text = rowsText(got)
				}
				if run == 0 {
					first = text
				} else if text != first {
					t.Errorf("cached=%v %q: run %d differs from run 0:\n%s\nwant:\n%s", cached, q.sql, run, text, first)
					break
				}
			}
		}
	}
}
