package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	sparksql "repro"
	"repro/internal/metrics"
	"repro/internal/row"
)

const (
	// dmlBatch is the rows per INSERT and per DELETE: every step inserts
	// dmlBatch new keys and deletes the dmlBatch oldest, so the table stays
	// at inputSize.liveRows.
	dmlBatch = 100
	// dmlGroupEvery runs the GROUP BY read every dmlGroupEvery-th step.
	dmlGroupEvery = 2
	dmlGroups     = 16
	// dmlCheckpointBytes makes the store checkpoint several times per run
	// (the default 4 MB threshold is reached only after minutes).
	dmlCheckpointBytes = 128 << 10
)

type kvRow struct {
	g int32
	v int64
	s string
}

// dml is the durable read/write mix over one table under a DataDir.
type dml struct {
	seed uint64
	root string
	dir  string
	rep  int
	rng  *rand.Rand

	ctx    *sparksql.Context
	ledger map[int64]kvRow
	lo, hi int64 // live keys are [lo, hi)
	step   int64
	queue  []stmt
}

func newDML(seed uint64, dir string) *dml { return &dml{seed: seed, root: dir} }

func (d *dml) config() sparksql.Config {
	cfg := sparksql.DefaultConfig()
	cfg.DataDir = d.dir
	cfg.CheckpointBytes = dmlCheckpointBytes
	return cfg
}

// openContext opens a context on the DataDir; the constructor panics on a
// store it cannot open, which is reported as an error here.
func (d *dml) openContext() (ctx *sparksql.Context, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("opening %s: %v", d.dir, p)
		}
	}()
	return sparksql.NewContextWithConfig(d.config()), nil
}

func (d *dml) genRow() kvRow {
	return kvRow{g: int32(d.rng.IntN(dmlGroups)), v: d.rng.Int64N(1_000_000), s: fmt.Sprintf("s%08x", d.rng.Uint32())}
}

func (d *dml) setup() error {
	d.rep++
	d.dir = filepath.Join(d.root, fmt.Sprintf("data-%d", d.rep))
	d.rng = rand.New(rand.NewPCG(d.seed, 0xd31))
	d.ledger = make(map[int64]kvRow, inputSize.liveRows+dmlBatch)
	d.lo, d.hi, d.step, d.queue = 0, inputSize.liveRows, 0, nil
	ctx, err := d.openContext()
	if err != nil {
		return err
	}
	d.ctx = ctx
	if _, err := runPublic(ctx, "CREATE TABLE kv (k BIGINT NOT NULL, g INT NOT NULL, v BIGINT NOT NULL, s STRING NOT NULL)"); err != nil {
		return err
	}
	// Preload in dmlBatch-row commits, the shape the loop's INSERTs leave,
	// so a DELETE of the oldest keys costs the same at the start of the
	// loop as later on.
	for k := d.lo; k < d.hi; k += dmlBatch {
		rows := make([]row.Row, 0, dmlBatch)
		for i := k; i < k+dmlBatch; i++ {
			r := d.genRow()
			d.ledger[i] = r
			rows = append(rows, row.Row{i, r.g, r.v, r.s})
		}
		if _, err := ctx.Store().Insert("kv", rows); err != nil {
			return err
		}
	}
	// Warm-up: both read classes once.
	for _, s := range []stmt{d.pointSelect(), d.groupBy()} {
		rows, err := runPublic(ctx, s.sql)
		if err == nil {
			err = s.check(rows)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", s.class, err)
		}
	}
	return nil
}

func (d *dml) teardown() error {
	var err error
	if d.ctx != nil {
		err = d.ctx.Close()
		d.ctx = nil
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	return err
}

func (d *dml) context() *sparksql.Context { return d.ctx }

func (d *dml) readClasses() []string { return []string{"point_select", "group_by"} }

// next emits one step at a time: INSERT, point SELECT, DELETE, point
// SELECT, UPDATE and, every dmlGroupEvery-th step, the GROUP BY.
func (d *dml) next() stmt {
	if len(d.queue) == 0 {
		d.step++
		d.queue = []stmt{d.insert(), d.pointSelect(), d.deleteOldest(), d.pointSelect(), d.update()}
		if d.step%dmlGroupEvery == 0 {
			d.queue = append(d.queue, d.groupBy())
		}
	}
	s := d.queue[0]
	d.queue = d.queue[1:]
	return s
}

func affected(rows []row.Row, want int64) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("result %v is not one rows_affected row", rows)
	}
	if n, ok := asInt(rows[0][0]); !ok || n != want {
		return fmt.Errorf("%v rows affected, want %d", rows[0][0], want)
	}
	return nil
}

// The statement constructors draw keys and values when the step is built;
// the checks read the ledger when the statement has run, and writes record
// themselves in the ledger only once acknowledged.

func (d *dml) insert() stmt {
	start := d.hi
	batch := make([]kvRow, dmlBatch)
	var sb strings.Builder
	sb.WriteString("INSERT INTO kv VALUES ")
	for i := range batch {
		batch[i] = d.genRow()
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", start+int64(i), batch[i].g, batch[i].v, batch[i].s)
	}
	d.hi += dmlBatch
	return stmt{class: "insert", sql: sb.String(), kind: kindInsert, rows: dmlBatch, check: func(rows []row.Row) error {
		if err := affected(rows, dmlBatch); err != nil {
			return err
		}
		for i, r := range batch {
			d.ledger[start+int64(i)] = r
		}
		return nil
	}}
}

func (d *dml) deleteOldest() stmt {
	lo := d.lo
	d.lo += dmlBatch
	return stmt{class: "delete", sql: fmt.Sprintf("DELETE FROM kv WHERE k < %d", lo+dmlBatch), kind: kindMutate, rows: dmlBatch,
		check: func(rows []row.Row) error {
			if err := affected(rows, dmlBatch); err != nil {
				return err
			}
			for k := lo; k < lo+dmlBatch; k++ {
				delete(d.ledger, k)
			}
			return nil
		}}
}

func (d *dml) update() stmt {
	k := d.lo + d.rng.Int64N(d.hi-d.lo)
	v := d.rng.Int64N(1_000_000)
	return stmt{class: "update", sql: fmt.Sprintf("UPDATE kv SET v = %d WHERE k = %d", v, k), kind: kindMutate, rows: 1,
		check: func(rows []row.Row) error {
			if err := affected(rows, 1); err != nil {
				return err
			}
			r := d.ledger[k]
			r.v = v
			d.ledger[k] = r
			return nil
		}}
}

func (d *dml) pointSelect() stmt {
	k := d.lo + d.rng.Int64N(d.hi-d.lo)
	return stmt{class: "point_select", sql: fmt.Sprintf("SELECT k, g, v, s FROM kv WHERE k = %d", k), kind: kindQuery,
		check: func(rows []row.Row) error {
			want, ok := d.ledger[k]
			if !ok {
				return fmt.Errorf("key %d is not live in the ledger", k)
			}
			return sameRows(rows, []row.Row{{k, want.g, want.v, want.s}})
		}}
}

func (d *dml) groupBy() stmt {
	return stmt{class: "group_by", sql: "SELECT g, COUNT(*), SUM(v) FROM kv GROUP BY g", kind: kindQuery,
		check: func(rows []row.Row) error {
			count, sum := map[int32]int64{}, map[int32]int64{}
			for _, r := range d.ledger {
				count[r.g]++
				sum[r.g] += r.v
			}
			want := make([]row.Row, 0, len(count))
			for g, n := range count {
				want = append(want, row.Row{g, n, sum[g]})
			}
			return sameRows(rows, want)
		}}
}

// finish measures the on-disk footprint, closes the context, reopens the
// DataDir (the recovery time) and checks every acknowledged row.
func (d *dml) finish(l *layers) error {
	disk, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	var live int64
	for _, t := range d.ctx.Store().Tables() {
		live += t.Bytes
	}
	if live > 0 {
		l.diskPerLive = float64(disk) / float64(live)
	}
	if err := d.ctx.Close(); err != nil {
		return err
	}
	d.ctx = nil
	t0 := time.Now()
	ctx, err := d.openContext()
	if err != nil {
		return err
	}
	l.recoveryS = time.Since(t0).Seconds()
	d.ctx = ctx
	for _, sp := range ctx.Trace().Snapshot() {
		if sp.Kind == metrics.SpanWAL && sp.Name == "wal.recover" {
			l.recoverMS += float64(sp.DurNS) / 1e6
		}
	}
	rows, err := runPublic(ctx, "SELECT k, g, v, s FROM kv")
	if err != nil {
		return err
	}
	want := make([]row.Row, 0, len(d.ledger))
	for k, r := range d.ledger {
		want = append(want, row.Row{k, r.g, r.v, r.s})
	}
	if err := sameRows(rows, want); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// natives are hand-written loops over the ledger's live rows: a full scan
// for the key (the engine has no index either) and a hash aggregation.
func (d *dml) natives() map[string]func() {
	keys := make([]int64, 0, len(d.ledger))
	vals := make([]kvRow, 0, len(d.ledger))
	for k, r := range d.ledger {
		keys = append(keys, k)
		vals = append(vals, r)
	}
	probe := d.lo + (d.hi-d.lo)/2
	return map[string]func(){
		"point_select": func() {
			for i, k := range keys {
				if k == probe {
					sink = vals[i]
				}
			}
		},
		"group_by": func() {
			var count, sum [dmlGroups]int64
			for _, r := range vals {
				count[r.g]++
				sum[r.g] += r.v
			}
			sink = count
			sink = sum
		},
	}
}

// sink keeps the hand-written loops' results alive.
var sink any

func (d *dml) sizes() map[string]any {
	return map[string]any{
		"live_rows": inputSize.liveRows, "rows_per_write": dmlBatch, "group_by_every_steps": dmlGroupEvery,
		"checkpoint_bytes": dmlCheckpointBytes, "fsync": "on commit",
	}
}
