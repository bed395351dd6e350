package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/datasource/colfile"
	"repro/internal/row"
)

// Figure 8: the AMPLab big data benchmark (Pavlo et al. web analytics) —
// scan (Q1a-c), aggregation (Q2a-c), join (Q3a-c) and a UDF-bound
// MapReduce-style query (Q4) — compared across three engines:
//
//   - Shark mode: this engine with code generation, whole-stage pipelining
//     and source pushdown disabled (interpreted row-at-a-time evaluation).
//   - Spark SQL mode: everything on.
//   - Native mode: hand-written Go loops over decoded columnar data — the
//     stand-in for Impala's compiled C++ execution.
//
// Data is stored in the columnar file format (the paper stores Parquet).
type AMPLab struct {
	Dir                    string
	NumRankings, NumVisits int64

	RankingsPath, VisitsPath string

	// Opened columnar files for the native engine (file bytes resident,
	// like the OS page cache on a warmed cluster; columns decode per
	// query, like Impala reading Parquet).
	rankingsRel *colfile.Relation
	visitsRel   *colfile.Relation
}

const amplabSeed = 0xa3f

// NewAMPLab generates the two tables, writes them as columnar files under
// dir, and decodes the columns the native engine needs.
func NewAMPLab(dir string, numRankings, numVisits int64) (*AMPLab, error) {
	a := &AMPLab{
		Dir:          dir,
		NumRankings:  numRankings,
		NumVisits:    numVisits,
		RankingsPath: filepath.Join(dir, "rankings.gcf"),
		VisitsPath:   filepath.Join(dir, "uservisits.gcf"),
	}

	rankings := make([]row.Row, numRankings)
	for i := int64(0); i < numRankings; i++ {
		rankings[i] = datagen.RankingRow(amplabSeed, i)
	}
	if err := colfile.Write(a.RankingsPath, datagen.RankingsSchema(), rankings, 1<<14); err != nil {
		return nil, err
	}

	visits := make([]row.Row, numVisits)
	for i := int64(0); i < numVisits; i++ {
		visits[i] = datagen.UserVisitRow(amplabSeed+1, i, numRankings)
	}
	if err := colfile.Write(a.VisitsPath, datagen.UserVisitsSchema(), visits, 1<<14); err != nil {
		return nil, err
	}

	var err error
	if a.rankingsRel, err = colfile.Open(a.RankingsPath); err != nil {
		return nil, err
	}
	if a.visitsRel, err = colfile.Open(a.VisitsPath); err != nil {
		return nil, err
	}
	return a, nil
}

// NewContext builds an engine in Spark SQL or Shark mode with the two
// tables and the Q4 UDF registered.
func (a *AMPLab) NewContext(shark bool) (*sparksql.Context, error) {
	cfg := sparksql.DefaultConfig()
	if shark {
		cfg = sparksql.SharkConfig()
	}
	ctx := sparksql.NewContextWithConfig(cfg)
	r, err := ctx.Read().ColFile(a.RankingsPath)
	if err != nil {
		return nil, err
	}
	r.RegisterTempTable("rankings")
	v, err := ctx.Read().ColFile(a.VisitsPath)
	if err != nil {
		return nil, err
	}
	v.RegisterTempTable("uservisits")
	if err := ctx.RegisterUDF("url_key", URLKey); err != nil {
		return nil, err
	}
	return ctx, nil
}

// Queries. The selectivity parameters follow the benchmark: 1a/1b/1c use
// pageRank > 1000/100/10; 2a/2b/2c group on 8/10/12-character IP prefixes;
// 3a/3b/3c widen the visitDate range.

// Q1 is the scan query.
func Q1(x int32) string {
	return fmt.Sprintf("SELECT pageURL, pageRank FROM rankings WHERE pageRank > %d", x)
}

// Q1Params are the a/b/c selectivity parameters.
var Q1Params = []int32{1000, 100, 10}

// Q2 is the aggregation query.
func Q2(prefix int) string {
	return fmt.Sprintf(
		"SELECT SUBSTR(sourceIP, 1, %d), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, %d)",
		prefix, prefix)
}

// Q2Params are the a/b/c prefix lengths.
var Q2Params = []int{8, 10, 12}

// Q3 is the join query.
func Q3(cutoff string) string {
	return fmt.Sprintf(`
		SELECT sourceIP, SUM(adRevenue) AS totalRevenue, AVG(pageRank) AS avgPageRank
		FROM rankings R JOIN uservisits UV ON R.pageURL = UV.destURL
		WHERE UV.visitDate >= '%s' AND UV.visitDate <= '%s'
		GROUP BY sourceIP
		ORDER BY totalRevenue DESC
		LIMIT 1`, q3From, cutoff)
}

// q3From is Q3's lower visitDate bound.
const q3From = "1980-01-01"

// Q3Params are the a/b/c date cutoffs (≈25 %, 50 %, 100 % of visits).
var Q3Params = []string{"1980-04-01", "1980-07-01", "1981-01-01"}

// Q4 is the UDF-bound query (the paper's Python Hive UDF analogue).
const Q4Query = "SELECT url_key(destURL), count(*) FROM uservisits GROUP BY url_key(destURL)"

// URLKey is the deliberately CPU-expensive UDF behind Q4: an iterated
// string hash, standing in for the benchmark's per-row UDF work.
func URLKey(url string) string {
	var h uint64 = 14695981039346656037
	for round := 0; round < 40; round++ {
		for i := 0; i < len(url); i++ {
			h ^= uint64(url[i])
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("k%02d", h%64)
}

// RunSQL executes a query and returns the row count (forcing full
// materialization like the benchmark).
func RunSQL(ctx *sparksql.Context, query string) (int64, error) {
	df, err := ctx.SQL(query)
	if err != nil {
		return 0, err
	}
	rows, err := df.Collect()
	if err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

// ---------------------------------------------------------------------------
// Native (hand-written) engine — the Impala stand-in.

// NativeQ1 decodes the two columns and scans with a tight loop.
func (a *AMPLab) NativeQ1(x int32) int64 {
	ranks, _, err := a.rankingsRel.Int32Column("pageRank")
	if err != nil {
		panic(err)
	}
	urls, _, err := a.rankingsRel.StringColumn("pageURL")
	if err != nil {
		panic(err)
	}
	var n int64
	for i := range ranks {
		if ranks[i] > x {
			_ = urls[i]
			n++
		}
	}
	return n
}

// NativeQ2 aggregates revenue by IP prefix.
func (a *AMPLab) NativeQ2(prefix int) int64 {
	ips, _, err := a.visitsRel.StringColumn("sourceIP")
	if err != nil {
		panic(err)
	}
	revs, _, err := a.visitsRel.Float64Column("adRevenue")
	if err != nil {
		panic(err)
	}
	agg := make(map[string]float64, 1<<16)
	for i := range ips {
		ip := ips[i]
		if len(ip) > prefix {
			ip = ip[:prefix]
		}
		agg[ip] += revs[i]
	}
	return int64(len(agg))
}

// NativeQ3 joins, aggregates and returns the top source IP.
func (a *AMPLab) NativeQ3(cutoff int32) (string, float64) {
	rURL, _, err := a.rankingsRel.StringColumn("pageURL")
	if err != nil {
		panic(err)
	}
	rRank, _, err := a.rankingsRel.Int32Column("pageRank")
	if err != nil {
		panic(err)
	}
	vIP, _, err := a.visitsRel.StringColumn("sourceIP")
	if err != nil {
		panic(err)
	}
	vDest, _, err := a.visitsRel.StringColumn("destURL")
	if err != nil {
		panic(err)
	}
	vDate, _, err := a.visitsRel.Int32Column("visitDate")
	if err != nil {
		panic(err)
	}
	vRev, _, err := a.visitsRel.Float64Column("adRevenue")
	if err != nil {
		panic(err)
	}
	ranks := make(map[string]int32, len(rURL))
	for i, u := range rURL {
		ranks[u] = rRank[i]
	}
	type acc struct {
		rev    float64
		rank   int64
		visits int64
	}
	agg := make(map[string]*acc, 1<<16)
	for i := range vIP {
		if vDate[i] < q3FromDay || vDate[i] > cutoff {
			continue
		}
		rank, ok := ranks[vDest[i]]
		if !ok {
			continue
		}
		s, ok := agg[vIP[i]]
		if !ok {
			s = &acc{}
			agg[vIP[i]] = s
		}
		s.rev += vRev[i]
		s.rank += int64(rank)
		s.visits++
	}
	bestIP, bestRev := "", -1.0
	for ip, s := range agg {
		if s.rev > bestRev {
			bestIP, bestRev = ip, s.rev
		}
	}
	return bestIP, bestRev
}

// Q3Cutoffs are Q3Params as DATE values (days since 1970-01-01), and
// q3FromDay is q3From's.
var (
	Q3Cutoffs = dayNumbers(Q3Params...)
	q3FromDay = dayNumbers(q3From)[0]
)

func dayNumbers(dates ...string) []int32 {
	out := make([]int32, len(dates))
	for i, d := range dates {
		t, err := time.Parse(time.DateOnly, d)
		if err != nil {
			panic(err)
		}
		out[i] = int32(t.Unix() / 86400)
	}
	return out
}

// NativeQ4 runs the UDF aggregation with direct calls.
func (a *AMPLab) NativeQ4() int64 {
	dests, _, err := a.visitsRel.StringColumn("destURL")
	if err != nil {
		panic(err)
	}
	agg := make(map[string]int64, 64)
	for _, u := range dests {
		agg[URLKey(u)]++
	}
	return int64(len(agg))
}
