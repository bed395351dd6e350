package colfile

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datasource"
	"repro/internal/row"
	"repro/internal/types"
)

func testSchema() types.StructType {
	return types.StructType{}.
		Add("flag", types.Boolean, true).
		Add("i", types.Int, true).
		Add("l", types.Long, true).
		Add("d", types.Double, true).
		Add("s", types.String, true).
		Add("when", types.Date, true)
}

func randomRows(rng *rand.Rand, n int) []row.Row {
	out := make([]row.Row, n)
	for i := range out {
		r := row.Row{
			rng.Intn(2) == 0,
			int32(rng.Intn(1000)),
			int64(rng.Intn(100000)),
			rng.Float64() * 100,
			[]string{"", "x", "hello world", "çüé"}[rng.Intn(4)],
			int32(16000 + rng.Intn(700)),
		}
		if rng.Intn(6) == 0 {
			r[rng.Intn(len(r))] = nil
		}
		out[i] = r
	}
	return out
}

func scanAll(t *testing.T, rel *Relation, cols []string, filters []datasource.Filter) []row.Row {
	t.Helper()
	scan, err := rel.ScanPrunedFiltered(cols, filters)
	if err != nil {
		t.Fatal(err)
	}
	var out []row.Row
	for p := 0; p < scan.NumPartitions; p++ {
		out = append(out, scan.Partition(p)...)
	}
	return out
}

// Property: write-then-read returns the data exactly, for random rows and
// row-group sizes.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		rows := randomRows(rng, 1+rng.Intn(400))
		path := filepath.Join(dir, "t.gcf")
		if err := Write(path, testSchema(), rows, 1+rng.Intn(100)); err != nil {
			t.Fatal(err)
		}
		rel, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Schema().Equals(testSchema()) {
			t.Fatalf("schema round-trip: %s", rel.Schema().Name())
		}
		got := scanAll(t, rel, testSchema().FieldNames(), nil)
		if len(got) != len(rows) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if !row.Equal(got[i][j], rows[i][j]) {
					t.Fatalf("trial %d row %d col %d: %v != %v", trial, i, j, got[i][j], rows[i][j])
				}
			}
		}
	}
}

func TestColumnPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := randomRows(rng, 100)
	path := filepath.Join(t.TempDir(), "t.gcf")
	if err := Write(path, testSchema(), rows, 0); err != nil {
		t.Fatal(err)
	}
	rel, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, rel, []string{"s", "i"}, nil)
	for i := range rows {
		if !row.Equal(got[i][0], rows[i][4]) || !row.Equal(got[i][1], rows[i][1]) {
			t.Fatalf("pruned row %d = %v", i, got[i])
		}
	}
	if _, err := rel.ScanPrunedFiltered([]string{"nope"}, nil); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestFilterPushdownIsExact(t *testing.T) {
	rows := make([]row.Row, 1000)
	for i := range rows {
		rows[i] = row.Row{i%2 == 0, int32(i), int64(i), float64(i), "s", int32(16000)}
	}
	path := filepath.Join(t.TempDir(), "t.gcf")
	if err := Write(path, testSchema(), rows, 100); err != nil {
		t.Fatal(err)
	}
	rel, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRowGroups() != 10 {
		t.Fatalf("groups = %d", rel.NumRowGroups())
	}
	filters := []datasource.Filter{
		datasource.GreaterOrEqual{Col: "i", Value: int32(950)},
	}
	got := scanAll(t, rel, []string{"i"}, filters)
	if len(got) != 50 {
		t.Fatalf("filtered rows = %d, want 50 (exact evaluation)", len(got))
	}
	// HandledFilters reports everything handled.
	if handled := rel.HandledFilters(filters); len(handled) != 1 {
		t.Fatal("colfile evaluates filters exactly")
	}
}

func TestRowGroupSkipping(t *testing.T) {
	// Row groups have disjoint ranges; a selective filter must not decode
	// non-matching groups. We detect skipping via the returned partitions:
	// skipped groups yield nil slices.
	rows := make([]row.Row, 1000)
	for i := range rows {
		rows[i] = row.Row{true, int32(i), int64(i), 0.0, "s", int32(16000)}
	}
	path := filepath.Join(t.TempDir(), "t.gcf")
	if err := Write(path, testSchema(), rows, 100); err != nil {
		t.Fatal(err)
	}
	rel, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := rel.ScanPrunedFiltered([]string{"i"}, []datasource.Filter{
		datasource.GreaterThan{Col: "i", Value: int32(899)},
	})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for p := 0; p < scan.NumPartitions; p++ {
		if len(scan.Partition(p)) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("stats skipping failed: %d groups produced rows", nonEmpty)
	}
}

func TestTypedColumnReaders(t *testing.T) {
	rows := []row.Row{
		{true, int32(1), int64(10), 1.5, "a", int32(100)},
		{false, nil, int64(20), 2.5, "b", int32(200)},
	}
	path := filepath.Join(t.TempDir(), "t.gcf")
	if err := Write(path, testSchema(), rows, 0); err != nil {
		t.Fatal(err)
	}
	rel, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ints, valid, err := rel.Int32Column("i")
	if err != nil {
		t.Fatal(err)
	}
	if ints[0] != 1 || !valid[0] || valid[1] {
		t.Fatalf("ints = %v valid = %v", ints, valid)
	}
	ds, _, err := rel.Float64Column("d")
	if err != nil || ds[1] != 2.5 {
		t.Fatalf("doubles = %v (%v)", ds, err)
	}
	ss, _, err := rel.StringColumn("s")
	if err != nil || ss[0] != "a" {
		t.Fatalf("strings = %v (%v)", ss, err)
	}
	if _, _, err := rel.Int32Column("s"); err == nil {
		t.Fatal("type mismatch must error")
	}
	if _, _, err := rel.StringColumn("zz"); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestCorruptFileRejected(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.gcf")
	os.WriteFile(bad, []byte("not a columnar file at all"), 0o644)
	if _, err := Open(bad); err == nil {
		t.Fatal("garbage must be rejected")
	}
	// Truncated real file.
	rows := []row.Row{{true, int32(1), int64(1), 1.0, "x", int32(1)}}
	good := filepath.Join(dir, "good.gcf")
	if err := Write(good, testSchema(), rows, 0); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	trunc := filepath.Join(dir, "trunc.gcf")
	os.WriteFile(trunc, data[:len(data)/2], 0o644)
	if _, err := Open(trunc); err == nil {
		t.Fatal("truncated file must be rejected")
	}
}

func TestUnsupportedTypeRejected(t *testing.T) {
	schema := types.StructType{}.Add("x", types.ArrayType{Elem: types.Int}, false)
	err := Write(filepath.Join(t.TempDir(), "t.gcf"), schema, nil, 0)
	if err == nil {
		t.Fatal("nested types are not supported by the file format")
	}
}

func TestSizeInBytes(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(9)), 50)
	path := filepath.Join(t.TempDir(), "t.gcf")
	if err := Write(path, testSchema(), rows, 0); err != nil {
		t.Fatal(err)
	}
	rel, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if rel.SizeInBytes() != st.Size() {
		t.Fatalf("size = %d, file = %d", rel.SizeInBytes(), st.Size())
	}
}

// allTypesSchema covers every type the format stores.
func allTypesSchema() types.StructType {
	return testSchema().Add("ts", types.Timestamp, true)
}

// allTypesRows draws rows over allTypesSchema with NULLs in every column,
// and makes rows [nullLo, nullHi) NULL in column nullCol so the row group
// holding them carries an all-NULL chunk.
func allTypesRows(rng *rand.Rand, n, nullCol, nullLo, nullHi int) []row.Row {
	out := make([]row.Row, n)
	for i := range out {
		r := row.Row{
			rng.Intn(2) == 0,
			int32(rng.Intn(2000) - 1000),
			int64(rng.Intn(1 << 40)),
			rng.NormFloat64() * 100,
			[]string{"", "x", "hello world", "çüé", "xylophone"}[rng.Intn(5)],
			int32(16000 + rng.Intn(700)),
			int64(1_400_000_000_000_000 + rng.Int63n(1<<36)),
		}
		for j := range r {
			if rng.Intn(7) == 0 {
				r[j] = nil
			}
		}
		if i >= nullLo && i < nullHi {
			r[nullCol] = nil
		}
		out[i] = r
	}
	return out
}

// scanBatches collects every selected row of a columnar scan, boxed, along
// with the number of batches seen.
func scanBatches(t *testing.T, rel *Relation, cols []string, filters []datasource.Filter) ([]row.Row, int) {
	t.Helper()
	batches, err := rel.ScanColumnar(cols, filters)
	if err != nil {
		t.Fatal(err)
	}
	var out []row.Row
	n := 0
	for p := 0; p < batches.NumPartitions; p++ {
		batches.Partition(p, func(b datasource.Batch) {
			n++
			if len(b.Cols) != len(cols) {
				t.Fatalf("batch has %d columns, want %d", len(b.Cols), len(cols))
			}
			for _, i := range b.Sel {
				r := make(row.Row, len(b.Cols))
				for k, v := range b.Cols {
					r[k] = v.Get(int(i))
				}
				out = append(out, r)
			}
		})
	}
	return out, n
}

// sameRows requires equal values of equal Go types, row by row.
func sameRows(t *testing.T, what string, got, want []row.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if !row.Equal(g, w) || fmt.Sprintf("%T", g) != fmt.Sprintf("%T", w) {
				t.Fatalf("%s: row %d col %d = %v (%T), want %v (%T)", what, i, j, g, g, w, w)
			}
		}
	}
}

// The batch decoder round-trips every type with NULLs — including an
// all-NULL chunk and row groups spanning several batches — and agrees with
// the row decode of the same file, for full and pruned column lists.
func TestColumnarScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	schema := allTypesSchema()
	for trial := 0; trial < 6; trial++ {
		n := 1 + rng.Intn(12000)
		groupSize := []int{1 + rng.Intn(300), 5000, 9000}[trial%3]
		nullCol := trial % len(schema.Fields)
		rows := allTypesRows(rng, n, nullCol, 0, min(n, groupSize))
		path := filepath.Join(dir, fmt.Sprintf("t%d.gcf", trial))
		if err := Write(path, schema, rows, groupSize); err != nil {
			t.Fatal(err)
		}
		rel, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := scanBatches(t, rel, schema.FieldNames(), nil)
		sameRows(t, fmt.Sprintf("trial %d batches", trial), got, rows)
		sameRows(t, fmt.Sprintf("trial %d rows", trial), scanAll(t, rel, schema.FieldNames(), nil), rows)

		cols := []string{"ts", "s", "flag", "s"}
		want := make([]row.Row, len(rows))
		for i, r := range rows {
			want[i] = row.Row{r[6], r[4], r[0], r[4]}
		}
		got, _ = scanBatches(t, rel, cols, nil)
		sameRows(t, fmt.Sprintf("trial %d pruned batches", trial), got, want)
		sameRows(t, fmt.Sprintf("trial %d pruned rows", trial), scanAll(t, rel, cols, nil), want)
	}
}

// The selection a columnar scan reports is exactly the rows where every
// pushed filter's Matches holds, row by row, whether or not the filtered
// columns are also returned — across typed filters, IN lists, prefixes,
// NaN-free doubles, and row groups that min/max skipping drops.
func TestColumnarSelectionMatchesFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	schema := allTypesSchema()
	// Two groups of 6000 rows, two batches each; d is all NULL in group 0.
	rows := allTypesRows(rng, 12000, 3, 0, 6000)
	// Column i rises with the row index so its min/max rule out groups.
	for k, r := range rows {
		if r[1] != nil {
			r[1] = int32(k)
		}
	}
	path := filepath.Join(t.TempDir(), "t.gcf")
	if err := Write(path, schema, rows, 6000); err != nil {
		t.Fatal(err)
	}
	rel, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	filterSets := [][]datasource.Filter{
		{datasource.GreaterThan{Col: "i", Value: int32(10500)}}, // group 1, second batch
		{datasource.IsNotNull{Col: "d"}},
		{datasource.LessOrEqual{Col: "i", Value: int32(4200)}, datasource.EqualTo{Col: "flag", Value: true}},
		{datasource.GreaterOrEqual{Col: "d", Value: 10.5}, datasource.LessThan{Col: "l", Value: int64(1 << 39)}},
		{datasource.EqualTo{Col: "s", Value: "x"}, datasource.GreaterThan{Col: "when", Value: int32(16350)}},
		{datasource.In{Col: "s", Values: []any{"x", "çüé"}}, datasource.In{Col: "i", Values: []any{int32(7), int32(8000), int32(8001)}}},
		{datasource.StringStartsWith{Col: "s", Prefix: "x"}},
		{datasource.LessThan{Col: "ts", Value: int64(1_400_000_000_000_000 + 1<<35)}},
		{datasource.EqualTo{Col: "i", Value: int32(4500)}}, // group 0, second batch
		{datasource.In{Col: "d", Values: []any{rows[5][3], 1.5}}},
	}
	for _, filters := range filterSets {
		var want []row.Row
		for _, r := range rows {
			ok := true
			for _, f := range filters {
				ok = ok && f.Matches(r[schema.FieldIndex(f.Attribute())])
			}
			if ok {
				want = append(want, row.Row{r[4], r[6]})
			}
		}
		what := fmt.Sprint(filters)
		got, _ := scanBatches(t, rel, []string{"s", "ts"}, filters)
		sameRows(t, what+" batches", got, want)
		sameRows(t, what+" rows", scanAll(t, rel, []string{"s", "ts"}, filters), want)
	}
	// Min/max statistics rule out group 0 for both i > 10500 and, since its
	// d chunk is all NULL, d IS NOT NULL: it is skipped before decoding.
	for _, filters := range filterSets[:2] {
		ords := []int{schema.FieldIndex(filters[0].Attribute())}
		for g, want := range []bool{false, true} {
			if got := rel.groupMayMatch(rel.groups[g], filters, ords); got != want {
				t.Fatalf("%v: group %d may match = %v, want %v", filters, g, got, want)
			}
		}
	}
}
