package datasource

import (
	"cmp"
	"math"
	"strings"

	"repro/internal/columnar"
	"repro/internal/types"
)

// Batch is one horizontal slice of a columnar scan: a typed vector per
// requested column (all N rows decoded) and the selection of rows that pass
// the pushed filters.
type Batch struct {
	Cols []*columnar.Vector
	N    int
	// Sel lists, in ascending order, the positions in [0, N) that pass the
	// pushed filters. Consumers read only these positions.
	Sel []int32
}

// Batches is partitioned batch output from a relation, the columnar
// counterpart of Scan.
type Batches struct {
	NumPartitions int
	// Partition hands partition p's batches to fn in order; batches with no
	// selected row may be skipped. It must be safe to call concurrently for
	// distinct p and repeatedly for the same p. Vectors are read-only.
	Partition func(p int, fn func(Batch))
}

// ColumnarScan is the batch-capable counterpart of PrunedFilteredScan: the
// same pruned columns and pushed filters, answered as typed column vectors
// instead of boxed rows, so a vectorized engine pays no per-value boxing
// between the source and its first operator. Filters are evaluated with the
// same semantics as ScanPrunedFiltered; a source that also implements
// ExactFilterScan lets the engine drop the residual predicate either way.
type ColumnarScan interface {
	Relation
	ScanColumnar(columns []string, filters []Filter) (Batches, error)
}

// Select narrows sel to the positions of v whose value matches f. It agrees
// with f.Matches(v.Get(i)) row by row: IS NOT NULL, prefix tests and
// comparisons against a constant of the column's own value type run as
// typed loops; anything else (IN lists, unknown filter types, mismatched
// constants) boxes each value and asks Matches.
func Select(f Filter, v *columnar.Vector, sel []int32) []int32 {
	if keep := typedMatch(f, v); keep != nil {
		out := make([]int32, 0, len(sel))
		for _, i := range sel {
			if !v.IsNull(int(i)) && keep(int(i)) {
				out = append(out, i)
			}
		}
		return out
	}
	out := make([]int32, 0, len(sel))
	for _, i := range sel {
		if f.Matches(v.Get(int(i))) {
			out = append(out, i)
		}
	}
	return out
}

// typedMatch compiles f into a test of the non-NULL value at position i,
// or returns nil when f has no typed form over v.
func typedMatch(f Filter, v *columnar.Vector) func(i int) bool {
	mask := v.Mask()
	switch x := f.(type) {
	case IsNotNull:
		return func(int) bool { return true }
	case StringStartsWith:
		if v.Kind != columnar.KindString {
			return nil
		}
		return func(i int) bool { return strings.HasPrefix(v.Str[i&mask], x.Prefix) }
	}
	value, want := comparison(f)
	if want == nil {
		return nil
	}
	switch c := value.(type) {
	case int32:
		if v.Kind == columnar.KindInt64 && narrowInt(v.Type) {
			k := int64(c)
			return func(i int) bool { return want(cmp.Compare(v.I64[i&mask], k)) }
		}
	case int64:
		if v.Kind == columnar.KindInt64 && !narrowInt(v.Type) {
			return func(i int) bool { return want(cmp.Compare(v.I64[i&mask], c)) }
		}
	case float64:
		if v.Kind == columnar.KindFloat64 && v.Type.Equals(types.Double) {
			return func(i int) bool { return want(cmpFloat(v.F64[i&mask], c)) }
		}
	case string:
		if v.Kind == columnar.KindString {
			return func(i int) bool { return want(cmp.Compare(v.Str[i&mask], c)) }
		}
	case bool:
		if v.Kind == columnar.KindBool {
			return func(i int) bool { return want(cmpBool(v.Bool[i&mask], c)) }
		}
	}
	return nil
}

// comparison splits a comparison filter into its constant and the sign of
// row.Compare(value, constant) it accepts.
func comparison(f Filter) (any, func(int) bool) {
	switch x := f.(type) {
	case EqualTo:
		return x.Value, func(c int) bool { return c == 0 }
	case GreaterThan:
		return x.Value, func(c int) bool { return c > 0 }
	case GreaterOrEqual:
		return x.Value, func(c int) bool { return c >= 0 }
	case LessThan:
		return x.Value, func(c int) bool { return c < 0 }
	case LessOrEqual:
		return x.Value, func(c int) bool { return c <= 0 }
	}
	return nil, nil
}

// narrowInt reports whether an integer-kind column boxes as int32.
func narrowInt(t types.DataType) bool {
	return t.Equals(types.Int) || t.Equals(types.Date)
}

// cmpFloat orders like row.Compare on float64: NaN sorts above everything
// and equals itself.
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}
