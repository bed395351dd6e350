package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/row"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shrink runs the workloads on small inputs so a short run still collects
// the samples every metric needs.
func shrink(t *testing.T) {
	saved := inputSize
	inputSize.rankings, inputSize.visits, inputSize.liveRows = 2000, 6000, 2000
	t.Cleanup(func() { inputSize = saved })
}

func shortRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	w, err := newWorkload(name, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(w, name, 7, 2, traced)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShortMode runs every workload briefly, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units. Workloads BENCHMARK.json lists must also be correct.
func TestShortMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	shrink(t)
	spec := loadSpec(t)
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := shortRun(t, name, traced)
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d: %v", name, traced, len(res.metrics), len(want), sortedKeys(res.metrics))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
			if listed[name] && (!res.correct || res.failed != 0 || res.attempted == 0) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.correct, res.attempted, res.failed, res.descriptor["failures"])
			}
		}
	}
}

// wrongReference perturbs one class's answers before the check sees them,
// which is the same as checking them against a wrong reference.
type wrongReference struct {
	workload
	class   string
	perturb func([]row.Row) []row.Row
}

func (w wrongReference) next() stmt {
	s := w.workload.next()
	if s.class == w.class {
		check := s.check
		s.check = func(rows []row.Row) error { return check(w.perturb(rows)) }
	}
	return s
}

// TestWrongReferenceCaught proves the checks can fail: a run whose answers
// disagree with the reference must report incorrect results.
func TestWrongReferenceCaught(t *testing.T) {
	shrink(t)
	cases := []struct {
		workload, class string
		perturb         func([]row.Row) []row.Row
	}{
		{"amplab-cached", "Q1b", func(rows []row.Row) []row.Row { return rows[1:] }},
		{"amplab-cached", "Q2a", func(rows []row.Row) []row.Row {
			out := append([]row.Row(nil), rows...)
			r := append(row.Row(nil), out[0]...)
			r[1] = r[1].(float64) * (1 + 1e-6)
			out[0] = r
			return out
		}},
		{"amplab-colfile", "Q3a", func(rows []row.Row) []row.Row {
			r := append(row.Row(nil), rows[0]...)
			r[0] = r[0].(string) + "x"
			return []row.Row{r}
		}},
		{"dml-mixed", "point_select", func(rows []row.Row) []row.Row {
			r := append(row.Row(nil), rows[0]...)
			r[2] = r[2].(int64) + 1
			return []row.Row{r}
		}},
	}
	for _, c := range cases {
		w, err := newWorkload(c.workload, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWorkload(wrongReference{w, c.class, c.perturb}, c.workload, 3, 0.5, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.correct || res.failed == 0 {
			t.Errorf("%s %s: a wrong answer passed the check (correct=%v failed=%d)", c.workload, c.class, res.correct, res.failed)
		}
	}
}

// TestLedgerCatchesLostWrite checks the durable workload's closing
// verification: a ledger entry the table does not hold fails the run.
func TestLedgerCatchesLostWrite(t *testing.T) {
	shrink(t)
	d := newDML(5, t.TempDir())
	if err := d.setup(); err != nil {
		t.Fatal(err)
	}
	defer d.teardown()
	for i := 0; i < 12; i++ {
		s := d.next()
		rows, err := runPublic(d.ctx, s.sql)
		if err == nil {
			err = s.check(rows)
		}
		if err != nil {
			t.Fatalf("%s: %v", s.class, err)
		}
	}
	r := d.ledger[d.lo]
	r.s += "-lost"
	d.ledger[d.lo] = r
	if err := d.finish(newLayers(d.ctx)); err == nil || !strings.Contains(err.Error(), "after reopen") {
		t.Fatalf("finish with a wrong ledger: %v", err)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 75 || v != 30 {
		t.Fatalf("tail of 1..40 = p%d %v %v, want p75 30", pct, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("ten samples cannot support a tail percentile")
	}
}
