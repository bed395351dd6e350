package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/datasource/colfile"
	"repro/internal/experiments"
	"repro/internal/row"
)

// inputSize holds the workloads' input sizes: the Figure 8 tables at the
// benchmark runner's scale 1, and the durable table's live rows. The
// package's tests shrink them.
var inputSize = struct{ rankings, visits, liveRows int64 }{20000, 60000, 20000}

// rowGroupSize matches the Figure 8 experiment's colfile layout.
const rowGroupSize = 1 << 14

// figure8 is the generated Figure 8 data set, held as rows (what the engine
// receives) and as columns (what the hand-written loops read).
type figure8 struct {
	rankings, visits []row.Row

	rURL  []string
	rRank []int32
	vIP   []string
	vDest []string
	vDate []int32
	vRev  []float64
}

// genFigure8 generates both tables from the workload seed.
func genFigure8(seed uint64, nRank, nVisit int64) *figure8 {
	d := &figure8{rankings: make([]row.Row, nRank), visits: make([]row.Row, nVisit)}
	for i := int64(0); i < nRank; i++ {
		d.rankings[i] = datagen.RankingRow(seed, i)
	}
	for i := int64(0); i < nVisit; i++ {
		d.visits[i] = datagen.UserVisitRow(seed+1, i, nRank)
	}
	return d
}

// columns decodes the columns the hand-written loops read.
func (d *figure8) columns() {
	d.rURL = make([]string, len(d.rankings))
	d.rRank = make([]int32, len(d.rankings))
	for i, r := range d.rankings {
		d.rURL[i], d.rRank[i] = r[0].(string), r[1].(int32)
	}
	n := len(d.visits)
	d.vIP, d.vDest = make([]string, n), make([]string, n)
	d.vDate, d.vRev = make([]int32, n), make([]float64, n)
	for i, r := range d.visits {
		d.vIP[i], d.vDest[i] = r[0].(string), r[1].(string)
		d.vDate[i], d.vRev[i] = r[2].(int32), r[3].(float64)
	}
}

// dropRows releases the generated rows once the engine holds its own copy
// (files or cache) and the columns are decoded, so the benchmark's inputs
// do not inflate the heap the engine's garbage collector scans.
func (d *figure8) dropRows() { d.rankings, d.visits = nil, nil }

// Hand-written loops: each computes the full answer of one Figure 8 query,
// in the manner of experiments.NativeQ*. They are both the native baseline
// of native_ratio and the reference the engine's answers are checked
// against.

type urlRank struct {
	url  string
	rank int32
}

func (d *figure8) nativeQ1(x int32) []urlRank {
	var out []urlRank
	for i, r := range d.rRank {
		if r > x {
			out = append(out, urlRank{d.rURL[i], r})
		}
	}
	return out
}

func (d *figure8) nativeQ2(prefix int) map[string]float64 {
	agg := make(map[string]float64, 1<<12)
	for i, ip := range d.vIP {
		if len(ip) > prefix {
			ip = ip[:prefix]
		}
		agg[ip] += d.vRev[i]
	}
	return agg
}

type q3Result struct {
	ip       string
	revenue  float64
	avgRank  float64
	hasMatch bool
}

// q3From is the lower visitDate bound experiments.Q3 writes as
// '1980-01-01'.
var q3From = dayNumber("1980-01-01")

// dayNumber converts a SQL date literal to days since 1970-01-01, the DATE
// value the engine compares. (experiments.Q3Cutoffs count from 3653 for
// 1980-01-01, one day late, so they are not used as references.)
func dayNumber(date string) int32 {
	t, err := time.Parse("2006-01-02", date)
	if err != nil {
		panic(fmt.Sprintf("bad date literal %q", date))
	}
	return int32(t.Unix() / 86400)
}

func (d *figure8) nativeQ3(cutoff int32) q3Result {
	ranks := make(map[string]int32, len(d.rURL))
	for i, u := range d.rURL {
		ranks[u] = d.rRank[i]
	}
	type acc struct {
		rev         float64
		rank, count int64
	}
	agg := make(map[string]*acc, 1<<12)
	for i, ip := range d.vIP {
		if d.vDate[i] < q3From || d.vDate[i] > cutoff {
			continue
		}
		rank, ok := ranks[d.vDest[i]]
		if !ok {
			continue
		}
		a := agg[ip]
		if a == nil {
			a = &acc{}
			agg[ip] = a
		}
		a.rev += d.vRev[i]
		a.rank += int64(rank)
		a.count++
	}
	best := q3Result{revenue: -1}
	for ip, a := range agg {
		if a.rev > best.revenue {
			best = q3Result{ip: ip, revenue: a.rev, avgRank: float64(a.rank) / float64(a.count), hasMatch: true}
		}
	}
	return best
}

func (d *figure8) nativeQ4() map[string]int64 {
	agg := make(map[string]int64, 64)
	for _, u := range d.vDest {
		agg[experiments.URLKey(u)]++
	}
	return agg
}

// figure8Query is one class of the Figure 8 mix.
type figure8Query struct {
	class  string
	sql    string
	native func()
	check  func([]row.Row) error
}

// figure8Mix builds the ten Figure 8 classes with their references.
func figure8Mix(d *figure8) []figure8Query {
	var qs []figure8Query
	for i, x := range experiments.Q1Params {
		x := x
		ref := d.nativeQ1(x)
		qs = append(qs, figure8Query{
			class: "Q1" + string(rune('a'+i)), sql: experiments.Q1(x),
			native: func() { d.nativeQ1(x) }, check: checkQ1(ref),
		})
	}
	for i, p := range experiments.Q2Params {
		p := p
		ref := d.nativeQ2(p)
		qs = append(qs, figure8Query{
			class: "Q2" + string(rune('a'+i)), sql: experiments.Q2(p),
			native: func() { d.nativeQ2(p) }, check: checkStringFloat(ref),
		})
	}
	for i, cut := range experiments.Q3Params {
		days := dayNumber(cut)
		ref := d.nativeQ3(days)
		qs = append(qs, figure8Query{
			class: "Q3" + string(rune('a'+i)), sql: experiments.Q3(cut),
			native: func() { d.nativeQ3(days) }, check: checkQ3(ref),
		})
	}
	ref := d.nativeQ4()
	qs = append(qs, figure8Query{
		class: "Q4", sql: experiments.Q4Query,
		native: func() { d.nativeQ4() }, check: checkStringInt(ref),
	})
	return qs
}

// amplab runs the Figure 8 mix over colfile tables or over cached tables.
type amplab struct {
	seed   uint64
	dir    string
	cached bool

	data      *figure8
	ctx       *sparksql.Context
	queries   []figure8Query
	order     mixOrder
	fileBytes int64
	cacheMS   []float64
	cacheB    int64
}

func newAMPLab(seed uint64, dir string, cached bool) *amplab {
	return &amplab{seed: seed, dir: dir, cached: cached, order: newMixOrder(seed)}
}

// mixOrder runs a mix's classes in a fresh seeded order each pass: every
// class gets the same number of samples, and no class keeps the same
// position relative to the garbage collector's cycles from run to run.
type mixOrder struct {
	rng  *rand.Rand
	perm []int
}

func newMixOrder(seed uint64) mixOrder {
	return mixOrder{rng: rand.New(rand.NewPCG(seed, 0x3a1))}
}

func (m *mixOrder) next(n int) int {
	if len(m.perm) == 0 {
		m.perm = m.rng.Perm(n)
	}
	i := m.perm[0]
	m.perm = m.perm[1:]
	return i
}

func (a *amplab) setup() error {
	a.data = genFigure8(a.seed, inputSize.rankings, inputSize.visits)
	ctx := sparksql.NewContext()
	if err := ctx.RegisterUDF("url_key", experiments.URLKey); err != nil {
		return err
	}
	tables := []struct {
		name   string
		schema sparksql.StructType
		rows   []row.Row
	}{
		{"rankings", datagen.RankingsSchema(), a.data.rankings},
		{"uservisits", datagen.UserVisitsSchema(), a.data.visits},
	}
	a.fileBytes, a.cacheB = 0, 0
	var cacheTime time.Duration
	for _, t := range tables {
		var df *sparksql.DataFrame
		var err error
		if a.cached {
			if df, err = ctx.CreateDataFrame(t.schema, t.rows); err != nil {
				return err
			}
			t0 := time.Now()
			info, err := df.Cache()
			if err != nil {
				return err
			}
			cacheTime += time.Since(t0)
			a.cacheB += info.ColumnarBytes
		} else {
			path := filepath.Join(a.dir, t.name+".gcf")
			if err := colfile.Write(path, t.schema, t.rows, rowGroupSize); err != nil {
				return err
			}
			if fi, err := os.Stat(path); err == nil {
				a.fileBytes += fi.Size()
			}
			if df, err = ctx.Read().ColFile(path); err != nil {
				return err
			}
		}
		df.RegisterTempTable(t.name)
	}
	if a.cached {
		a.cacheMS = append(a.cacheMS, ms(cacheTime))
	}
	a.ctx = ctx
	// Warm-up: one statement pays for lazy initialization.
	_, err := runPublic(ctx, experiments.Q1(experiments.Q1Params[0]))
	return err
}

func (a *amplab) teardown() error {
	a.ctx, a.data, a.queries = nil, nil, nil
	return nil
}

func (a *amplab) context() *sparksql.Context { return a.ctx }

func (a *amplab) ensureQueries() {
	if a.queries == nil {
		a.data.columns()
		a.queries = figure8Mix(a.data)
		a.data.dropRows()
	}
}

func (a *amplab) next() stmt {
	a.ensureQueries()
	q := a.queries[a.order.next(len(a.queries))]
	return stmt{class: q.class, sql: q.sql, kind: kindQuery, check: q.check}
}

func (a *amplab) readClasses() []string {
	a.ensureQueries()
	out := make([]string, len(a.queries))
	for i, q := range a.queries {
		out[i] = q.class
	}
	return out
}

func (a *amplab) natives() map[string]func() {
	a.ensureQueries()
	out := map[string]func(){}
	for _, q := range a.queries {
		out[q.class] = q.native
	}
	return out
}

func (a *amplab) finish(l *layers) error {
	l.cacheBuildMS = a.cacheMS
	l.cacheBytes = a.cacheB
	return nil
}

func (a *amplab) sizes() map[string]any {
	s := map[string]any{"rankings_rows": inputSize.rankings, "uservisits_rows": inputSize.visits}
	if a.cached {
		s["cache_bytes"] = a.cacheB
	} else {
		s["colfile_bytes"] = a.fileBytes
		s["row_group_rows"] = rowGroupSize
	}
	return s
}
