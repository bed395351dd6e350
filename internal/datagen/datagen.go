// Package datagen produces the deterministic synthetic workloads behind
// the paper's evaluation (§6): the Pavlo et al. web-analytics tables
// (rankings, uservisits) used by the AMPLab big data benchmark (Figure 8),
// the integer-pair dataset of the DataFrame-vs-native comparison
// (Figure 9), the message corpus of the two-stage pipeline (Figure 10),
// and JSON tweet records for the §5.1 schema-inference demos.
//
// All generators are pure functions of (seed, index), so partitions can be
// generated independently inside RDD tasks and regenerated on lineage
// recovery without storing the dataset.
package datagen

import (
	"fmt"
	"math"

	"repro/internal/row"
	"repro/internal/types"
)

// rng is SplitMix64; each record derives its randomness from (seed, i).
func rng(seed, i uint64) uint64 {
	x := seed ^ (i+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rngFloat(seed, i uint64) float64 {
	return float64(rng(seed, i)>>11) / float64(1<<53)
}

// RankingsSchema is the Pavlo benchmark's rankings table:
// (pageURL STRING, pageRank INT, avgDuration INT).
func RankingsSchema() types.StructType {
	return types.StructType{}.
		Add("pageURL", types.String, false).
		Add("pageRank", types.Int, false).
		Add("avgDuration", types.Int, false)
}

// RankingRow generates rankings row i. Page ranks follow a heavy-tailed
// distribution so the Figure 8 selectivity parameters (pageRank > 1000 /
// 100 / 10) select roughly the benchmark's "most selective … least
// selective" progression.
func RankingRow(seed uint64, i int64) row.Row {
	u := uint64(i)
	// Zipf-ish: rank = 10000 / (1 + k) with k uniform keeps a long tail.
	r := rngFloat(seed, u)
	rank := int32(10000.0 / (1.0 + 9999.0*r))
	duration := int32(1 + rng(seed+1, u)%99)
	return row.Row{pageURL(i), rank, duration}
}

func pageURL(i int64) string { return fmt.Sprintf("url_%09d", i) }

// UserVisitsSchema is the Pavlo uservisits table (the benchmark subset used
// by queries 2-4): sourceIP, destURL, visitDate, adRevenue, userAgent,
// countryCode, languageCode, searchWord, duration.
func UserVisitsSchema() types.StructType {
	return types.StructType{}.
		Add("sourceIP", types.String, false).
		Add("destURL", types.String, false).
		Add("visitDate", types.Date, false).
		Add("adRevenue", types.Double, false).
		Add("userAgent", types.String, false).
		Add("countryCode", types.String, false).
		Add("languageCode", types.String, false).
		Add("searchWord", types.String, false).
		Add("duration", types.Int, false)
}

var countryCodes = []string{"USA", "DEU", "FRA", "GBR", "JPN", "BRA", "IND", "CHN", "AUS", "CAN"}
var searchWords = []string{"spark", "sql", "catalyst", "dataframe", "shark", "impala", "hive", "hadoop"}

// UserVisitRow generates uservisits row i against a rankings table of
// numURLs pages. Visit dates spread uniformly over 1980-01-02..1980-12-31,
// the range the Figure 8 Q3 date cutoffs slice.
func UserVisitRow(seed uint64, i, numURLs int64) row.Row {
	u := uint64(i)
	ip := fmt.Sprintf("%d.%d.%d.%d",
		1+rng(seed, u)%223, rng(seed+1, u)%256, rng(seed+2, u)%256, 1+rng(seed+3, u)%254)
	dest := pageURL(int64(rng(seed+4, u) % uint64(numURLs)))
	// Day 3653 is 1980-01-02 (1980-01-01 is day 3652); spread visits over
	// the 365 days from there.
	visit := int32(3653 + int32(rng(seed+5, u)%365))
	revenue := rngFloat(seed+6, u) * 100.0
	agent := fmt.Sprintf("agent-%d", rng(seed+7, u)%50)
	cc := countryCodes[rng(seed+8, u)%uint64(len(countryCodes))]
	lang := cc[:2]
	word := searchWords[rng(seed+9, u)%uint64(len(searchWords))]
	dur := int32(1 + rng(seed+10, u)%1000)
	return row.Row{ip, dest, visit, revenue, agent, cc, lang, word, dur}
}

// Partitioned generates n rows split across parts partitions, produced
// lazily per partition by gen.
func Partitioned(n int64, parts int, gen func(i int64) row.Row) func(p int) []row.Row {
	return func(p int) []row.Row {
		lo := n * int64(p) / int64(parts)
		hi := n * int64(p+1) / int64(parts)
		out := make([]row.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, gen(i))
		}
		return out
	}
}

// PairSchema is the Figure 9 dataset: (a INT, b INT) with numKeys distinct
// values of a.
func PairSchema() types.StructType {
	return types.StructType{}.
		Add("a", types.Int, false).
		Add("b", types.Int, false)
}

// PairRow generates pair row i with a ∈ [0, numKeys).
func PairRow(seed uint64, i, numKeys int64) row.Row {
	u := uint64(i)
	return row.Row{
		int32(rng(seed, u) % uint64(numKeys)),
		int32(rng(seed+1, u) % 1000),
	}
}

// ZipfKey draws a key in [0, keys) for record i from a Zipf-like power
// law with exponent s, via the inverse CDF of the continuous density
// p(x) ∝ x^(-s) on [1, keys+1]. Key 0 is the hottest; s = 0 degenerates
// to uniform and larger s concentrates more mass on the head (s = 2 puts
// over half the rows on key 0). Pure in (seed, i) like every generator
// here, so skewed partitions regenerate identically under lineage
// recovery.
func ZipfKey(seed uint64, i, keys int64, s float64) int64 {
	if keys <= 1 {
		return 0
	}
	u := rngFloat(seed, uint64(i))
	n := float64(keys + 1)
	var x float64
	if s == 1 {
		x = math.Exp(u * math.Log(n))
	} else {
		x = math.Pow(1+u*(math.Pow(n, 1-s)-1), 1/(1-s))
	}
	k := int64(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= keys {
		k = keys - 1
	}
	return k
}

// SkewedPairRow is PairRow with a Zipf(s)-distributed join key — the
// natural input for skew-split tests, where one reduce bucket dominates.
func SkewedPairRow(seed uint64, i, numKeys int64, s float64) row.Row {
	return row.Row{
		int32(ZipfKey(seed, i, numKeys, s)),
		int32(rng(seed+1, uint64(i)) % 1000),
	}
}

// Pair is the unboxed form used by the hand-written RDD baselines.
type Pair struct{ A, B int32 }

// PairValue is PairRow without boxing.
func PairValue(seed uint64, i, numKeys int64) Pair {
	u := uint64(i)
	return Pair{
		A: int32(rng(seed, u) % uint64(numKeys)),
		B: int32(rng(seed+1, u) % 1000),
	}
}

// Dictionary is the word list for the Figure 10 message corpus.
var Dictionary = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "spark",
	"sql", "query", "data", "frame", "catalyst", "plan", "filter", "join",
	"aggregate", "shuffle", "partition", "column", "row", "schema", "type",
	"table", "cache", "memory", "cluster", "node", "task", "stage", "job",
}

// MessageSchema is (id BIGINT, text STRING).
func MessageSchema() types.StructType {
	return types.StructType{}.
		Add("id", types.Long, false).
		Add("text", types.String, false)
}

// MessageText generates a message of ~avgWords words; roughly keepFraction
// of messages contain the word "spark" (the Figure 10 filter keeps ~90 %).
func MessageText(seed uint64, i int64, avgWords int, keepFraction float64) string {
	u := uint64(i)
	nWords := avgWords/2 + int(rng(seed, u)%uint64(avgWords))
	buf := make([]byte, 0, nWords*6)
	hasSpark := rngFloat(seed+1, u) < keepFraction
	sparkAt := -1
	if hasSpark {
		sparkAt = int(rng(seed+2, u) % uint64(nWords))
	}
	for w := 0; w < nWords; w++ {
		if w > 0 {
			buf = append(buf, ' ')
		}
		if w == sparkAt {
			buf = append(buf, "spark"...)
			continue
		}
		// Skew word frequencies (Zipf-ish) so word count has hot keys.
		z := rngFloat(seed+3, u*31+uint64(w))
		idx := int(math.Pow(z, 2.0) * float64(len(Dictionary)))
		if idx >= len(Dictionary) {
			idx = len(Dictionary) - 1
		}
		buf = append(buf, Dictionary[idx]...)
	}
	return string(buf)
}

// MessageRow generates message row i.
func MessageRow(seed uint64, i int64) row.Row {
	return row.Row{i, MessageText(seed, i, 10, 0.9)}
}

// TweetJSON renders a synthetic tweet as JSON (Figure 5's shape), with
// occasional missing loc and integer-vs-float coordinates to exercise the
// inference algorithm's generalizations.
func TweetJSON(seed uint64, i int64) string {
	u := uint64(i)
	text := MessageText(seed, i, 8, 0.3)
	tags := ""
	if rng(seed+1, u)%3 == 0 {
		tags = `"#spark"`
	}
	if rng(seed+2, u)%2 == 0 {
		lat := 20.0 + rngFloat(seed+3, u)*40
		long := -120.0 + rngFloat(seed+4, u)*60
		if rng(seed+5, u)%4 == 0 {
			// Integer coordinates in some records force FLOAT/DOUBLE
			// generalization, as in the paper's Figure 5.
			return fmt.Sprintf(`{"text": %q, "tags": [%s], "loc": {"lat": %d, "long": %d}}`,
				text, tags, int(lat), int(long))
		}
		return fmt.Sprintf(`{"text": %q, "tags": [%s], "loc": {"lat": %.4f, "long": %.4f}}`,
			text, tags, lat, long)
	}
	return fmt.Sprintf(`{"text": %q, "tags": [%s]}`, text, tags)
}
