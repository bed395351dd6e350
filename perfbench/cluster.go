package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/cluster/sqlexec"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/row"
)

// clusterQuery is one class of the loopback cluster mix.
type clusterQuery struct {
	class  string
	sql    string
	native func()
	// check validates an answer against the hand-written loop; the loop
	// itself checks distributed answers against the local engine's.
	check func([]row.Row) error
	local []row.Row
}

// clusterWorkload runs a coordinator and one worker in this process, the
// worker connected over loopback TCP through a byte-counting relay.
type clusterWorkload struct {
	seed uint64

	data    *figure8
	ctx     *sparksql.Context
	worker  *cluster.Worker
	done    chan struct{}
	relay   *relay
	queries []clusterQuery
	order   mixOrder
	cacheMS []float64
	cacheB  int64
}

func newClusterWorkload(seed uint64) *clusterWorkload {
	return &clusterWorkload{seed: seed, order: newMixOrder(seed)}
}

const clusterFilterRank = 100

func (c *clusterWorkload) setup() error {
	c.data = genFigure8(c.seed, inputSize.rankings, inputSize.visits)
	cfg := sparksql.DefaultConfig()
	cfg.Cluster = &sparksql.ClusterOptions{}
	ctx := sparksql.NewContextWithConfig(cfg)
	c.ctx = ctx
	t0 := time.Now()
	bytes, err := loadCached(ctx, c.data)
	if err != nil {
		return err
	}
	c.cacheMS = append(c.cacheMS, ms(time.Since(t0)))
	c.cacheB = bytes

	if c.relay, err = startRelay(ctx.ClusterAddr()); err != nil {
		return err
	}
	c.worker = cluster.NewWorker(cluster.WorkerConfig{ID: "w0", CoordinatorAddr: c.relay.addr()})
	sqlexec.NewExecutor().Register(c.worker)
	c.done = make(chan struct{})
	go func(w *cluster.Worker, done chan struct{}) {
		defer close(done)
		w.Run(context.Background())
	}(c.worker, c.done)
	deadline := time.Now().Add(10 * time.Second)
	for ctx.Cluster().Coordinator().NumWorkers() < 1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("worker did not register")
		}
		time.Sleep(time.Millisecond)
	}
	// Warm-up: ships the session (the cached tables) to the worker.
	_, err = runPublic(ctx, c.sqls()[0])
	return err
}

// loadCached registers both Figure 8 tables as cached tables and returns
// their columnar size.
func loadCached(ctx *sparksql.Context, d *figure8) (int64, error) {
	var bytes int64
	for _, t := range []struct {
		name   string
		schema sparksql.StructType
		rows   []row.Row
	}{
		{"rankings", datagen.RankingsSchema(), d.rankings},
		{"uservisits", datagen.UserVisitsSchema(), d.visits},
	} {
		df, err := ctx.CreateDataFrame(t.schema, t.rows)
		if err != nil {
			return 0, err
		}
		info, err := df.Cache()
		if err != nil {
			return 0, err
		}
		bytes += info.ColumnarBytes
		df.RegisterTempTable(t.name)
	}
	return bytes, nil
}

func (c *clusterWorkload) sqls() []string {
	return []string{
		fmt.Sprintf("SELECT COUNT(*) FROM rankings WHERE pageRank > %d", clusterFilterRank),
		experiments.Q2(experiments.Q2Params[0]),
		experiments.Q3(experiments.Q3Params[0]),
	}
}

func (c *clusterWorkload) teardown() error {
	var first error
	if c.worker != nil {
		c.worker.Close()
	}
	if c.ctx != nil {
		first = c.ctx.Close()
	}
	if c.relay != nil {
		c.relay.close()
	}
	if c.done != nil {
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			if first == nil {
				first = fmt.Errorf("worker did not stop")
			}
		}
	}
	c.worker, c.ctx, c.relay, c.done, c.data, c.queries = nil, nil, nil, nil, nil, nil
	return first
}

func (c *clusterWorkload) context() *sparksql.Context { return c.ctx }

// ensureQueries computes the references once the last setup is done: the
// hand-written loops' answers, and the local engine's answers on the same
// data (checked against the loops first).
func (c *clusterWorkload) ensureQueries() error {
	if c.queries != nil {
		return nil
	}
	d := c.data
	d.columns()
	count := d.countRankAbove(clusterFilterRank)
	cutoff := dayNumber(experiments.Q3Params[0])
	sqls := c.sqls()
	qs := []clusterQuery{
		{class: "filter_count", sql: sqls[0], native: func() { d.countRankAbove(clusterFilterRank) },
			check: func(rows []row.Row) error { return sameRows(rows, []row.Row{{count}}) }},
		{class: "group_by", sql: sqls[1], native: func() { d.nativeQ2(experiments.Q2Params[0]) },
			check: checkStringFloat(d.nativeQ2(experiments.Q2Params[0]))},
		{class: "join", sql: sqls[2], native: func() { d.nativeQ3(cutoff) }, check: checkQ3(d.nativeQ3(cutoff))},
	}
	local := sparksql.NewContext()
	if _, err := loadCached(local, d); err != nil {
		return err
	}
	for i := range qs {
		rows, err := runPublic(local, qs[i].sql)
		if err == nil {
			err = qs[i].check(rows)
		}
		if err != nil {
			return fmt.Errorf("local reference %s: %w", qs[i].class, err)
		}
		qs[i].local = rows
	}
	d.dropRows()
	c.queries = qs
	return nil
}

func (d *figure8) countRankAbove(x int32) int64 {
	var n int64
	for _, r := range d.rRank {
		if r > x {
			n++
		}
	}
	return n
}

func (c *clusterWorkload) next() stmt {
	if err := c.ensureQueries(); err != nil {
		return stmt{class: "setup", sql: "SELECT 1", check: func([]row.Row) error { return err }}
	}
	q := c.queries[c.order.next(len(c.queries))]
	return stmt{class: q.class, sql: q.sql, kind: kindQuery, check: func(rows []row.Row) error {
		return sameRows(rows, q.local)
	}}
}

func (c *clusterWorkload) readClasses() []string { return []string{"filter_count", "group_by", "join"} }

func (c *clusterWorkload) natives() map[string]func() {
	out := map[string]func(){}
	if c.ensureQueries() != nil {
		return out
	}
	for _, q := range c.queries {
		out[q.class] = q.native
	}
	return out
}

func (c *clusterWorkload) finish(l *layers) error {
	l.cacheBuildMS = c.cacheMS
	l.cacheBytes = c.cacheB
	if n := c.ctx.Metrics().Counter("cluster.fallback").Load(); n != 0 {
		return fmt.Errorf("%d statements fell back to local execution", n)
	}
	return nil
}

// wire reports the bytes the relay has carried so far.
func (c *clusterWorkload) wire() (down, up int64) { return c.relay.down.Load(), c.relay.up.Load() }

func (c *clusterWorkload) sizes() map[string]any {
	return map[string]any{
		"rankings_rows": inputSize.rankings, "uservisits_rows": inputSize.visits, "cache_bytes": c.cacheB,
		"workers": 1, "transport": "loopback TCP through a byte-counting relay",
	}
}

// relay is a pass-through TCP proxy between the worker and the
// coordinator; it counts the bytes it carries in each direction.
type relay struct {
	ln     net.Listener
	target string
	down   atomic.Int64 // coordinator -> worker
	up     atomic.Int64 // worker -> coordinator
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) serve() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		t, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, t)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(t, c, &r.up)
		go r.pipe(c, t, &r.down)
	}
}

// pipe copies src to dst, counting bytes, and closes both when src ends.
func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	io.Copy(countingWriter{dst, n}, src)
	dst.Close()
	src.Close()
}

// close stops accepting, closes every relayed connection and waits for the
// copy goroutines to end.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n.Add(int64(k))
	return k, err
}
