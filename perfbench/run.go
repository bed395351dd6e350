package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	sparksql "repro"
	"repro/internal/row"
)

// setupReps is how often a run builds its workload from scratch; setup_s is
// the median, and the last build is the one the timed loop runs on.
const setupReps = 5

// stmtKind says how the traced run splits a statement into layers.
type stmtKind int

const (
	// kindQuery is a SELECT: parse, analyze, optimize, plan, adapt, execute.
	kindQuery stmtKind = iota
	// kindInsert is an INSERT ... VALUES: the same phases over the VALUES
	// projection the statement evaluates, then the store commit.
	kindInsert
	// kindMutate is a DELETE or UPDATE: parse and WHERE analysis, then the
	// store commit.
	kindMutate
)

// stmt is one statement of a workload's closed loop.
type stmt struct {
	class string
	sql   string
	kind  stmtKind
	// rows is the number of rows a write commits (0 for reads).
	rows int64
	// check compares the rows the statement returned with the benchmark's
	// reference. For reads it has no side effects (the traced run calls it
	// twice); for writes it also records the acknowledged change in the
	// workload's ledger.
	check func(rows []row.Row) error
}

func (s stmt) write() bool { return s.kind != kindQuery }

// workload is one seeded benchmark workload.
type workload interface {
	// setup builds inputs and engine state from scratch, including a
	// warm-up statement that pays for lazy initialization.
	setup() error
	// teardown releases what setup built.
	teardown() error
	// context is the engine the statements run on.
	context() *sparksql.Context
	// next returns the loop's next statement.
	next() stmt
	// readClasses are the classes behind query_geomean_ms, query_tail_ms
	// and native_ratio.
	readClasses() []string
	// natives maps each read class to a hand-written loop computing the
	// same answer over the generated data.
	natives() map[string]func()
	// finish runs after the timed loop: the durable workload closes,
	// reopens and verifies its table there.
	finish(l *layers) error
	// sizes describes the input sizes for the run descriptor.
	sizes() map[string]any
}

// loopStats accumulates one closed loop.
type loopStats struct {
	lat           map[string]*samples // per class
	attempted     int64
	failed        int64
	errs          []string
	stmtTime      time.Duration
	mallocs       uint64
	allocBytes    uint64
	gcCycles      uint32
	gcPauseNS     uint64
	writeRows     int64
	writeTime     time.Duration
	timedStmts    int64
	firstErrClass map[string]bool
	native        map[string][]float64 // hand-written loop times, ms
}

func newLoopStats() *loopStats {
	return &loopStats{lat: map[string]*samples{}, firstErrClass: map[string]bool{}, native: map[string][]float64{}}
}

func (s *loopStats) fail(class string, err error) {
	s.failed++
	if !s.firstErrClass[class] {
		s.firstErrClass[class] = true
		s.errs = append(s.errs, fmt.Sprintf("%s: %v", class, err))
	}
}

func (s *loopStats) classSamples(class string) []float64 {
	if p := s.lat[class]; p != nil {
		return *p
	}
	return nil
}

// runPublic executes one statement the way a user of the library does.
func runPublic(ctx *sparksql.Context, sql string) ([]row.Row, error) {
	df, err := ctx.SQL(sql)
	if err != nil {
		return nil, err
	}
	return df.Collect()
}

// minTailSamples is the per-class sample count query_tail_ms needs: a
// percentile with ten samples above it.
const minTailSamples = 12

// untracedLoop runs the closed loop until the deadline, timing each
// statement and reading allocation counters around it. With minPerClass
// set it runs on, up to a second deadline, until every read class has that
// many samples (unless a statement failed: the run is lost anyway). With
// natives set, each read statement is followed by its class's hand-written
// loop, so both see the same machine conditions.
func untracedLoop(w workload, deadline, hardDeadline time.Time, minPerClass int, natives map[string]func(), st *loopStats) {
	var m0, m1 runtime.MemStats
	short := func() bool {
		if st.failed > 0 {
			return false
		}
		for _, c := range w.readClasses() {
			if len(st.classSamples(c)) < minPerClass {
				return true
			}
		}
		return false
	}
	for now := time.Now(); now.Before(deadline) || (now.Before(hardDeadline) && short()); now = time.Now() {
		s := w.next()
		ctx := w.context()
		st.attempted++
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rows, err := runPublic(ctx, s.sql)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = s.check(rows)
		}
		if err != nil {
			st.fail(s.class, err)
			continue
		}
		st.record(s, d)
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.gcCycles += m1.NumGC - m0.NumGC
		st.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		if fn := natives[s.class]; fn != nil {
			st.native[s.class] = append(st.native[s.class], timeNative(fn))
		}
	}
}

func (st *loopStats) record(s stmt, d time.Duration) {
	p := st.lat[s.class]
	if p == nil {
		p = &samples{}
		st.lat[s.class] = p
	}
	p.add(d)
	st.stmtTime += d
	st.timedStmts++
	if s.write() {
		st.writeRows += s.rows
		st.writeTime += d
	}
}

// timeNative returns the mean time of one call of a hand-written loop,
// repeating calls for at least a millisecond so short loops time reliably.
func timeNative(fn func()) float64 {
	reps := 0
	t0 := time.Now()
	for {
		fn()
		reps++
		if d := time.Since(t0); d >= time.Millisecond {
			return ms(d) / float64(reps)
		}
	}
}

// runWorkload is one invocation: setup (setupReps times), the timed loop(s),
// the workload's closing checks and the report.
func runWorkload(w workload, name string, seed uint64, seconds float64, traced bool) (*result, error) {
	res := &result{}
	var setupTimes []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer w.teardown()

	budget := time.Duration(seconds * float64(time.Second))
	plain := newLoopStats()
	runtime.GC()
	var lay *layers
	if !traced {
		// A slow host may need longer than the budget for the samples
		// query_tail_ms needs; the extension is capped well inside the
		// three minutes a run may take.
		untracedLoop(w, time.Now().Add(budget), time.Now().Add(budget+time.Minute), minTailSamples, w.natives(), plain)
	} else {
		// Half the budget runs untraced, half traced: the difference is
		// the benchmark's own tracing overhead.
		untracedLoop(w, time.Now().Add(budget/2), time.Time{}, 0, nil, plain)
		lay = newLayers(w.context())
		lay.loop(w, time.Now().Add(budget/2))
	}
	if lay == nil {
		lay = newLayers(w.context())
	}
	finishErr := w.finish(lay)
	natives := map[string]float64{}
	for class, xs := range plain.native {
		natives[class] = median(xs)
	}

	res.attempted = plain.attempted + lay.stats.attempted
	res.failed = plain.failed + lay.stats.failed
	errs := append(append([]string{}, plain.errs...), lay.stats.errs...)
	if finishErr != nil {
		res.failed++
		errs = append(errs, "finish: "+finishErr.Error())
	}
	res.correct = res.failed == 0 && len(lay.invalid) == 0
	errs = append(errs, lay.invalid...)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", e)
	}

	q := queryMetrics(plain, w.readClasses(), natives)
	desc := descriptor(name, seed, seconds, traced, w.sizes())
	desc["setup_s"] = setupTimes
	desc["samples"] = q.counts
	desc["setup_reps"] = setupReps
	desc["timed_statements"] = plain.timedStmts
	desc["tail_percentiles"] = q.pcts
	desc["median_ms"] = q.medians
	desc["native_ms"] = natives
	desc["failures"] = errs
	if !traced {
		res.set("setup_s", "s", median(setupTimes))
		res.set("query_geomean_ms", "ms", q.geomean)
		res.set("query_tail_ms", "ms", q.tail)
		res.set("throughput_qps", "1/s", float64(plain.timedStmts)/plain.stmtTime.Seconds())
		res.set("native_ratio", "ratio", q.nativeRatio)
		res.set("allocs_per_stmt", "count", float64(plain.mallocs)/float64(plain.timedStmts))
		res.set("peak_rss_mb", "MB", peakRSSMB())
		if q.tail == 0 {
			res.correct = false
			fmt.Fprintln(os.Stderr, "perfbench: FAIL too few samples for query_tail_ms:", q.counts)
		}
	} else {
		lay.report(res, plain, q, desc)
	}
	res.descriptor = desc
	return res, nil
}

// queryStats are the read-class summaries of one loop.
type queryStats struct {
	geomean, tail, nativeRatio float64
	counts                     map[string]int
	pcts                       map[string]int
	medians                    map[string]float64
}

func queryMetrics(st *loopStats, classes []string, natives map[string]float64) queryStats {
	q := queryStats{counts: map[string]int{}, pcts: map[string]int{}, medians: map[string]float64{}}
	var meds, tails, ratios []float64
	tailOK := true
	for _, c := range classes {
		xs := st.classSamples(c)
		q.counts[c] = len(xs)
		m := median(xs)
		q.medians[c] = m
		meds = append(meds, m)
		pct, v, ok := tail(xs)
		q.pcts[c] = pct
		tailOK = tailOK && ok
		tails = append(tails, v)
		if n := natives[c]; n > 0 {
			ratios = append(ratios, m/n)
		}
	}
	q.geomean = geomean(meds)
	if tailOK {
		q.tail = geomean(tails)
	}
	if len(ratios) == len(classes) {
		q.nativeRatio = geomean(ratios)
	}
	return q
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// descriptor describes the host and the run.
func descriptor(name string, seed uint64, seconds float64, traced bool, sizes map[string]any) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"sizes":      sizes,
		"loop":       "closed, 1 client, 1 statement at a time",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
