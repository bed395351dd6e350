package experiments

import (
	"fmt"
	"time"

	sparksql "repro"
	"repro/internal/datagen"
	"repro/internal/row"
)

// Overhead study: Config.Observability is on by default, so its cost —
// per-operator metrics, per-action trace ids and span sinks, event-log
// appends — is paid on every query; the study quantifies it. Four engines
// hold the same cached rankings table, crossing {observability on, off}
// with {vectorized, row-at-a-time}, and run the same Q1 scan under each.
// The acceptance bar is that the "on" columns stay within 5% of "off" on
// both execution paths.
type MetricsOverheadStudy struct {
	OnRow  *sparksql.Context // observability on, row-at-a-time
	OffRow *sparksql.Context // observability off, row-at-a-time
	OnVec  *sparksql.Context // observability on, vectorized
	OffVec *sparksql.Context // observability off, vectorized
	N      int64
}

// NewMetricsOverheadStudy builds and caches n rankings rows under all four
// engine configurations.
func NewMetricsOverheadStudy(n int64) (*MetricsOverheadStudy, error) {
	s := &MetricsOverheadStudy{N: n}
	rows := make([]row.Row, n)
	for i := int64(0); i < n; i++ {
		rows[i] = datagen.RankingRow(42, i)
	}
	mk := func(obs, vectorized bool) (*sparksql.Context, error) {
		cfg := sparksql.DefaultConfig()
		cfg.Observability = obs
		cfg.Vectorized = vectorized
		ctx := sparksql.NewContextWithConfig(cfg)
		df, err := ctx.CreateDataFrame(datagen.RankingsSchema(), rows)
		if err != nil {
			return nil, err
		}
		if _, err := df.Cache(); err != nil {
			return nil, err
		}
		df.RegisterTempTable("rankings")
		return ctx, nil
	}
	for _, c := range []struct {
		dst        **sparksql.Context
		on, vector bool
	}{
		{&s.OnRow, true, false},
		{&s.OffRow, false, false},
		{&s.OnVec, true, true},
		{&s.OffVec, false, true},
	} {
		var err error
		if *c.dst, err = mk(c.on, c.vector); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Run executes Q1 under one of the four engines.
func (s *MetricsOverheadStudy) Run(ctx *sparksql.Context, x int32) (int64, error) {
	return RunSQL(ctx, Q1(x))
}

// Overhead measures observability-on vs -off Q1 throughput on one
// execution path (row or vectorized) and returns the relative slowdown of
// the instrumented engine: 0.05 means observability costs 5%. Negative values mean
// the instrumented run came out faster (noise). Each side runs iters
// queries after one warm-up, interleaved on/off to decorrelate from
// machine-load drift. The order inside each pair alternates (on then off,
// then off then on): a query's garbage is collected during the query that
// follows it, so a fixed order would bill one side for the other's
// allocations.
func (s *MetricsOverheadStudy) Overhead(vectorized bool, iters int) (float64, error) {
	on, off := s.OnRow, s.OffRow
	if vectorized {
		on, off = s.OnVec, s.OffVec
	}
	x := Q1Params[0]
	for _, ctx := range []*sparksql.Context{on, off} {
		if _, err := s.Run(ctx, x); err != nil {
			return 0, err
		}
	}
	var onNS, offNS int64
	for i := 0; i < iters; i++ {
		pair := []*sparksql.Context{on, off}
		if i%2 == 1 {
			pair = []*sparksql.Context{off, on}
		}
		for _, ctx := range pair {
			start := time.Now()
			if _, err := s.Run(ctx, x); err != nil {
				return 0, err
			}
			if ns := time.Since(start).Nanoseconds(); ctx == on {
				onNS += ns
			} else {
				offNS += ns
			}
		}
	}
	if offNS == 0 {
		return 0, fmt.Errorf("metricsoverhead: zero baseline time")
	}
	return float64(onNS-offNS) / float64(offNS), nil
}

// Verify asserts all four engines agree on the Q1 result — instrumentation
// must be observation only.
func (s *MetricsOverheadStudy) Verify() error {
	for _, x := range Q1Params {
		want, err := s.Run(s.OffRow, x)
		if err != nil {
			return err
		}
		for name, ctx := range map[string]*sparksql.Context{
			"on/row": s.OnRow, "on/vec": s.OnVec, "off/vec": s.OffVec,
		} {
			got, err := s.Run(ctx, x)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("metricsoverhead: Q1(%d) %s returned %d rows, baseline %d", x, name, got, want)
			}
		}
	}
	return nil
}
