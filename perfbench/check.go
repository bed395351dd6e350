package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/row"
)

// floatTol is the relative tolerance for floating-point sums and averages:
// the engine and the hand-written loops add in different orders.
const floatTol = 1e-9

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int64:
		return float64(x), true
	case int32:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int32:
		return int64(x), true
	case int:
		return int64(x), true
	}
	return 0, false
}

func wantWidth(rows []row.Row, width int) error {
	for _, r := range rows {
		if len(r) != width {
			return fmt.Errorf("row %v has %d columns, want %d", r, len(r), width)
		}
	}
	return nil
}

// checkQ1 expects exactly the (pageURL, pageRank) pairs of ref.
func checkQ1(ref []urlRank) func([]row.Row) error {
	want := make(map[string]int32, len(ref))
	for _, p := range ref {
		want[p.url] = p.rank
	}
	return func(rows []row.Row) error {
		if len(rows) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(rows), len(want))
		}
		if err := wantWidth(rows, 2); err != nil {
			return err
		}
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			url, _ := r[0].(string)
			rank, ok := asInt(r[1])
			w, found := want[url]
			if !ok || !found || int64(w) != rank || seen[url] {
				return fmt.Errorf("unexpected row %v", r)
			}
			seen[url] = true
		}
		return nil
	}
}

// checkStringFloat expects one (key, sum) row per key of ref.
func checkStringFloat(ref map[string]float64) func([]row.Row) error {
	return func(rows []row.Row) error {
		if len(rows) != len(ref) {
			return fmt.Errorf("%d rows, want %d", len(rows), len(ref))
		}
		if err := wantWidth(rows, 2); err != nil {
			return err
		}
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			k, _ := r[0].(string)
			v, ok := asFloat(r[1])
			w, found := ref[k]
			if !ok || !found || !closeEnough(v, w) || seen[k] {
				return fmt.Errorf("unexpected row %v (want %v)", r, w)
			}
			seen[k] = true
		}
		return nil
	}
}

// checkStringInt expects one (key, count) row per key of ref.
func checkStringInt(ref map[string]int64) func([]row.Row) error {
	return func(rows []row.Row) error {
		if len(rows) != len(ref) {
			return fmt.Errorf("%d rows, want %d", len(rows), len(ref))
		}
		if err := wantWidth(rows, 2); err != nil {
			return err
		}
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			k, _ := r[0].(string)
			v, ok := asInt(r[1])
			w, found := ref[k]
			if !ok || !found || v != w || seen[k] {
				return fmt.Errorf("unexpected row %v (want %d)", r, w)
			}
			seen[k] = true
		}
		return nil
	}
}

// checkQ3 expects the single top (sourceIP, totalRevenue, avgPageRank) row.
func checkQ3(ref q3Result) func([]row.Row) error {
	return func(rows []row.Row) error {
		if !ref.hasMatch {
			if len(rows) != 0 {
				return fmt.Errorf("%d rows, want none", len(rows))
			}
			return nil
		}
		if len(rows) != 1 {
			return fmt.Errorf("%d rows, want 1", len(rows))
		}
		if err := wantWidth(rows, 3); err != nil {
			return err
		}
		r := rows[0]
		ip, _ := r[0].(string)
		rev, ok1 := asFloat(r[1])
		avg, ok2 := asFloat(r[2])
		if ip != ref.ip || !ok1 || !ok2 || !closeEnough(rev, ref.revenue) || !closeEnough(avg, ref.avgRank) {
			return fmt.Errorf("got %v, want [%s %v %v]", r, ref.ip, ref.revenue, ref.avgRank)
		}
		return nil
	}
}

// sameRows compares two result sets as multisets: rows are ordered by
// their non-floating columns, then compared cell by cell, floats within
// floatTol.
func sameRows(got, want []row.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortRows(got), sortRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %v, want %v", g[i], w[i])
		}
		for j := range g[i] {
			gf, gok := g[i][j].(float64)
			wf, wok := w[i][j].(float64)
			if gok && wok {
				if !closeEnough(gf, wf) {
					return fmt.Errorf("row %v, want %v", g[i], w[i])
				}
				continue
			}
			if !row.Equal(g[i][j], w[i][j]) {
				return fmt.Errorf("row %v, want %v", g[i], w[i])
			}
		}
	}
	return nil
}

func sortRows(rows []row.Row) []row.Row {
	type keyed struct {
		key string
		r   row.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			if _, isFloat := v.(float64); !isFloat {
				sb.WriteString(row.FormatValue(v))
			}
			sb.WriteByte(0)
		}
		ks[i] = keyed{sb.String(), r}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]row.Row, len(rows))
	for i, k := range ks {
		out[i] = k.r
	}
	return out
}
