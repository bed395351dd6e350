package datasource

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/columnar"
	"repro/internal/row"
	"repro/internal/types"
)

func TestFilterAlgebra(t *testing.T) {
	cases := []struct {
		f    Filter
		v    any
		want bool
	}{
		{EqualTo{"c", int32(5)}, int32(5), true},
		{EqualTo{"c", int32(5)}, int32(6), false},
		{EqualTo{"c", int32(5)}, nil, false},
		{GreaterThan{"c", int32(5)}, int32(6), true},
		{GreaterThan{"c", int32(5)}, int32(5), false},
		{GreaterOrEqual{"c", int32(5)}, int32(5), true},
		{LessThan{"c", "m"}, "a", true},
		{LessOrEqual{"c", 2.5}, 2.5, true},
		{In{"c", []any{int32(1), int32(3)}}, int32(3), true},
		{In{"c", []any{int32(1), int32(3)}}, int32(2), false},
		{IsNotNull{"c"}, int32(0), true},
		{IsNotNull{"c"}, nil, false},
		{StringStartsWith{"c", "ab"}, "abc", true},
		{StringStartsWith{"c", "ab"}, "ba", false},
	}
	for _, c := range cases {
		if got := c.f.Matches(c.v); got != c.want {
			t.Errorf("%s.Matches(%v) = %v, want %v", c.f, c.v, got, c.want)
		}
	}
}

func TestApplyFilters(t *testing.T) {
	schema := types.StructType{}.
		Add("a", types.Int, false).
		Add("b", types.String, true)
	r := row.Row{int32(10), "hello"}
	ok := ApplyFilters([]Filter{
		GreaterThan{"a", int32(5)},
		StringStartsWith{"b", "he"},
	}, schema, r)
	if !ok {
		t.Error("all filters match")
	}
	if ApplyFilters([]Filter{LessThan{"a", int32(5)}}, schema, r) {
		t.Error("failing filter rejects")
	}
	// Unknown columns are advisory and skipped.
	if !ApplyFilters([]Filter{EqualTo{"zz", int32(1)}}, schema, r) {
		t.Error("unknown-column filters are skipped")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Register("x", ProviderFunc(func(map[string]string) (Relation, error) { return nil, nil }))
	if _, err := reg.Lookup("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Fatal("missing provider must error")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v", names)
	}
}

// Select over a vector agrees with Matches over the boxed values, for the
// typed loops (every comparison, IN, prefix, NaN ordering) and for the boxed
// fallback (a filter type Select does not know, an IN list mixing types).
func TestSelectAgreesWithMatches(t *testing.T) {
	nan := math.NaN()
	cols := []struct {
		t    types.DataType
		vals []any
	}{
		{types.Int, []any{int32(-3), nil, int32(0), int32(7), int32(7)}},
		{types.Date, []any{int32(16000), int32(16001), nil}},
		{types.Long, []any{int64(1) << 40, nil, int64(-2), int64(5)}},
		{types.Timestamp, []any{int64(10), int64(20), nil}},
		{types.Double, []any{1.5, nan, nil, -0.0, 2.5}},
		{types.String, []any{"", "ab", "abc", nil, "b"}},
		{types.Boolean, []any{true, false, nil}},
	}
	consts := []any{int32(7), int32(0), int64(5), int64(20), 1.5, nan, 0.0, "ab", "", true, false, nil}
	var filters []Filter
	for _, c := range consts {
		filters = append(filters,
			EqualTo{"c", c}, GreaterThan{"c", c}, GreaterOrEqual{"c", c},
			LessThan{"c", c}, LessOrEqual{"c", c})
	}
	filters = append(filters,
		IsNotNull{"c"}, StringStartsWith{"c", "a"},
		In{"c", []any{int32(7), int32(16001)}}, In{"c", []any{int64(5), int64(20)}},
		In{"c", []any{"ab", "b"}}, In{"c", []any{1.5, nan}}, In{"c", []any{int32(7), "ab"}},
		isNull{"c"})
	for _, c := range cols {
		v := columnar.NewVector(c.t, len(c.vals))
		sel := make([]int32, len(c.vals))
		for i, x := range c.vals {
			v.Set(i, x)
			sel[i] = int32(i)
		}
		for _, f := range filters {
			var want []int32
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				for i := range c.vals {
					if f.Matches(v.Get(i)) {
						want = append(want, int32(i))
					}
				}
				return false
			}()
			if panicked {
				continue // Compare across types is undefined; the row path panics too
			}
			got := Select(f, v, sel)
			if fmt.Sprint(got) != fmt.Sprint(want) && !(len(got) == 0 && len(want) == 0) {
				t.Errorf("%s over %s %v: Select = %v, Matches = %v", f, c.t.Name(), c.vals, got, want)
			}
		}
	}
}

// isNull is a filter type Select has no typed form for.
type isNull struct{ Col string }

func (f isNull) Attribute() string  { return f.Col }
func (f isNull) Matches(v any) bool { return v == nil }
func (f isNull) String() string     { return f.Col + " IS NULL" }
