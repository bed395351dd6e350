package core

// Distributed execution: ClusterRuntime adapts internal/cluster's
// coordinator to the rdd layer's RemoteRunner hook. The runtime ships the
// engine's catalog to workers as a sqlwire.SessionSpec (bumping an epoch
// whenever catalog contents change), dispatches "sql.partition" tasks
// with partition→worker affinity, and translates cluster-level failures
// into the rdd error vocabulary: worker loss and remote task failures
// stay retryable (the executor's ordinary backoff/re-pick loop handles
// them), while "this can never run remotely" conditions map to
// rdd.ErrRemoteFallback so the partition computes locally from lineage.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/sqlwire"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/rdd"
	"repro/internal/row"
	"repro/internal/types"
)

// ClusterOptions configures distributed execution for an engine.
type ClusterOptions struct {
	// Listen is the coordinator's TCP listen address ("" = 127.0.0.1:0).
	Listen string
	// HeartbeatTimeout, TaskTimeout, BlacklistThreshold and
	// BlacklistCooldown forward to cluster.CoordinatorConfig (zero =
	// that package's defaults).
	HeartbeatTimeout   time.Duration
	TaskTimeout        time.Duration
	BlacklistThreshold int
	BlacklistCooldown  time.Duration
	// Session is the config-knob template shipped to workers; the caller
	// (sparksql) fills it from its Config so worker contexts plan
	// identically. ID, Epoch and Tables are overwritten by the runtime.
	Session sqlwire.SessionSpec
	// HarvestInterval, when positive, starts a background federation
	// harvester that pulls every live worker's metrics registry over the
	// task protocol on this period. Zero leaves harvesting on-demand
	// (Harvest is called by SHOW CLUSTER and the /metrics endpoint).
	HarvestInterval time.Duration
}

// maxSpecBytes caps a shipped session: a spec that does not fit well
// inside one frame marks the session unshippable and queries run locally.
const maxSpecBytes = cluster.MaxFrameSize - 4096

var sessionSeq atomic.Uint64

// ClusterRuntime owns the coordinator and the session-shipping state.
type ClusterRuntime struct {
	e     *Engine
	coord *cluster.Coordinator

	mu        sync.Mutex
	template  sqlwire.SessionSpec
	sessionID string
	epoch     uint64
	fp        uint64
	specBytes []byte
	shippable bool
	inited    map[string]uint64      // workerID → epoch it holds
	initLocks map[string]*sync.Mutex // serializes init per worker

	// Federated observability: the latest counter samples harvested from
	// (or piggybacked by) each worker, keyed worker id → metric name →
	// absolute value. Samples are absolute, so last-write-wins merging
	// never double-counts concurrent tasks from one worker.
	obsMu      sync.Mutex
	obsWorkers map[string]map[string]int64
	// harvestStop terminates the background harvester (nil = none).
	harvestStop chan struct{}
}

// EnableCluster starts a coordinator for the engine and installs the
// runtime as the rdd layer's remote dispatcher.
func EnableCluster(e *Engine, opts ClusterOptions) (*ClusterRuntime, error) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout:   opts.HeartbeatTimeout,
		TaskTimeout:        opts.TaskTimeout,
		BlacklistThreshold: opts.BlacklistThreshold,
		BlacklistCooldown:  opts.BlacklistCooldown,
		Registry:           e.RDDCtx.Metrics(),
	})
	addr := opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if _, err := coord.Start(addr); err != nil {
		return nil, fmt.Errorf("core: cluster listen: %w", err)
	}
	rt := &ClusterRuntime{
		e:          e,
		coord:      coord,
		template:   opts.Session,
		sessionID:  fmt.Sprintf("s%d-%d", os.Getpid(), sessionSeq.Add(1)),
		inited:     make(map[string]uint64),
		initLocks:  make(map[string]*sync.Mutex),
		obsWorkers: make(map[string]map[string]int64),
	}
	e.cluster = rt
	e.RDDCtx.SetRemoteRunner(rt)
	if opts.HarvestInterval > 0 {
		rt.StartHarvester(opts.HarvestInterval)
	}
	return rt, nil
}

// Cluster returns the engine's cluster runtime (nil when not enabled).
func (e *Engine) Cluster() *ClusterRuntime { return e.cluster }

// Coordinator exposes the underlying coordinator for membership queries
// and chaos hooks.
func (rt *ClusterRuntime) Coordinator() *cluster.Coordinator { return rt.coord }

// Addr returns the coordinator's listen address.
func (rt *ClusterRuntime) Addr() string { return rt.coord.Addr() }

// Close stops the coordinator; workers see a goodbye and exit.
func (rt *ClusterRuntime) Close() error {
	rt.mu.Lock()
	if rt.harvestStop != nil {
		close(rt.harvestStop)
		rt.harvestStop = nil
	}
	rt.mu.Unlock()
	return rt.coord.Close()
}

// SetChaos forwards a fault-injection schedule to workers (the next
// refresh bumps the epoch, re-shipping sessions with the new schedule).
func (rt *ClusterRuntime) SetChaos(c sqlwire.ChaosSpec) {
	rt.mu.Lock()
	rt.template.Chaos = c
	rt.mu.Unlock()
}

// SetWorkerBackoff shapes worker-side internal retries.
func (rt *ClusterRuntime) SetWorkerBackoff(base, max time.Duration, seed uint64) {
	rt.mu.Lock()
	rt.template.BackoffBaseNS = int64(base)
	rt.template.BackoffMaxNS = int64(max)
	rt.template.BackoffSeed = seed
	rt.mu.Unlock()
}

// RefreshSession rebuilds the shipped session spec from the catalog. If
// anything changed since the last refresh the epoch advances and every
// worker is re-initialized before its next task. Failures only mark the
// session unshippable — queries then run locally, never wrongly.
func (rt *ClusterRuntime) RefreshSession() {
	tables := rt.collectTables()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	spec := rt.template
	spec.ID = rt.sessionID
	spec.Epoch = 0
	spec.Tables = tables
	probe, err := sqlwire.EncodeSession(&spec)
	if err != nil {
		rt.shippable = false
		return
	}
	h := fnv.New64a()
	h.Write(probe)
	fp := h.Sum64()
	if fp != rt.fp || rt.specBytes == nil {
		rt.epoch++
		rt.fp = fp
		spec.Epoch = rt.epoch
		if rt.specBytes, err = sqlwire.EncodeSession(&spec); err != nil {
			rt.shippable = false
			return
		}
		rt.inited = make(map[string]uint64)
	}
	rt.shippable = len(rt.specBytes) <= maxSpecBytes
}

// collectTables converts every shippable catalog table into a TableSpec.
// Tables whose plan or schema cannot ship (views, data sources, exotic
// column types) are skipped: queries referencing them fail analysis on
// the worker and fall back to local compute.
func (rt *ClusterRuntime) collectTables() []sqlwire.TableSpec {
	names := rt.e.Catalog.TableNames()
	sort.Strings(names)
	var out []sqlwire.TableSpec
	for _, name := range names {
		lp, ok := rt.e.Catalog.LookupTable(name)
		if !ok {
			continue
		}
		switch t := lp.(type) {
		case *plan.LocalRelation:
			fields, ok := attrFields(t.Attrs)
			if !ok {
				continue
			}
			blk, err := row.EncodeRows(t.Rows)
			if err != nil {
				continue
			}
			out = append(out, sqlwire.TableSpec{
				Name: name, Fields: fields, Partitions: [][]byte{blk},
			})
		case *plan.InMemoryRelation:
			fields, ok := sqlwire.Fields(t.Table.Schema)
			if !ok {
				continue
			}
			parts := make([][]byte, len(t.Table.Partitions))
			shippable := true
			for p := range t.Table.Partitions {
				blk, err := row.EncodeRows(t.Table.ScanPartition(p, nil, nil))
				if err != nil {
					shippable = false
					break
				}
				parts[p] = blk
			}
			if !shippable {
				continue
			}
			out = append(out, sqlwire.TableSpec{
				Name: name, Cached: true, Fields: fields, Partitions: parts,
			})
		}
	}
	return out
}

func attrFields(attrs []*expr.AttributeReference) ([]sqlwire.FieldSpec, bool) {
	fields := make([]types.StructField, len(attrs))
	for i, a := range attrs {
		fields[i] = types.StructField{Name: a.Name, Type: a.Type, Nullable: a.Null}
	}
	return sqlwire.Fields(types.NewStruct(fields...))
}

// session snapshots the shipped identity for query payloads.
func (rt *ClusterRuntime) session() (id string, epoch uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessionID, rt.epoch
}

func (rt *ClusterRuntime) clearInit(workerID string) {
	rt.mu.Lock()
	delete(rt.inited, workerID)
	rt.mu.Unlock()
}

// ensureInit ships the current session to the worker unless it already
// holds this epoch. Init is serialized per worker so concurrent partition
// tasks do not each ship the (potentially large) spec.
func (rt *ClusterRuntime) ensureInit(jc context.Context, workerID string) error {
	rt.mu.Lock()
	if rt.inited[workerID] == rt.epoch {
		rt.mu.Unlock()
		return nil
	}
	lk := rt.initLocks[workerID]
	if lk == nil {
		lk = &sync.Mutex{}
		rt.initLocks[workerID] = lk
	}
	rt.mu.Unlock()

	lk.Lock()
	defer lk.Unlock()
	rt.mu.Lock()
	done := rt.inited[workerID] == rt.epoch
	spec, epoch := rt.specBytes, rt.epoch
	rt.mu.Unlock()
	if done {
		return nil
	}
	if _, err := rt.coord.RunOnWorker(jc, workerID, "sql.init", spec); err != nil {
		return err
	}
	rt.mu.Lock()
	if rt.epoch == epoch {
		rt.inited[workerID] = epoch
	}
	rt.mu.Unlock()
	return nil
}

// Available implements rdd.RemoteRunner.
func (rt *ClusterRuntime) Available() bool { return rt.coord.Available() }

// RunTask implements rdd.RemoteRunner: pick a worker by partition
// affinity, make sure it holds the session, dispatch, translate errors.
func (rt *ClusterRuntime) RunTask(jc context.Context, kind string, partition int, payload []byte) ([]byte, string, error) {
	rt.mu.Lock()
	shippable := rt.shippable
	rt.mu.Unlock()
	if !shippable {
		return nil, "", rdd.ErrRemoteFallback
	}
	workerID, err := rt.coord.Pick(partition)
	if err != nil {
		return nil, "", translateNoWorker(err)
	}
	if err := rt.ensureInit(jc, workerID); err != nil {
		return nil, workerID, translateTaskErr(rt, workerID, err)
	}
	res, err := rt.coord.RunOnWorker(jc, workerID, kind, payload)
	if err != nil {
		return nil, workerID, translateTaskErr(rt, workerID, err)
	}
	return res, workerID, nil
}

func translateNoWorker(err error) error {
	if errors.Is(err, cluster.ErrNoWorkers) || errors.Is(err, cluster.ErrClosed) {
		return fmt.Errorf("%w: %v", rdd.ErrNoWorkers, err)
	}
	return err
}

func translateTaskErr(rt *ClusterRuntime, workerID string, err error) error {
	var lost *cluster.WorkerLostError
	if errors.As(err, &lost) {
		// The worker (or its connection) died: drop our init record so a
		// respawned process under the same id is re-shipped the session,
		// and keep the error retryable — the executor re-picks.
		rt.clearInit(workerID)
		return err
	}
	var re *cluster.RemoteError
	if errors.As(err, &re) && strings.Contains(re.Message, sqlwire.UninitializedMarker) {
		// A fresh process re-registered under a known id between our init
		// and this task: clear the cache so the retry re-initializes.
		rt.clearInit(workerID)
		return err
	}
	if cluster.IsFallback(err) {
		return fmt.Errorf("%w: %v", rdd.ErrRemoteFallback, err)
	}
	return err
}

// --- distributed actions -------------------------------------------------

// CollectDistributedContext is CollectContext, but partitions are
// dispatched to cluster workers when the engine has one attached and the
// query arrived as SQL text (the only form we can ship; "" runs locally).
// Every failure mode degrades to the local path; results are identical
// either way.
func (q *QueryExecution) CollectDistributedContext(ctx context.Context, sql string) ([]row.Row, error) {
	var rows []row.Row
	_, err := q.run(ctx, q.engine.ExecContext(), "collect", sql, func(jc context.Context, r *rdd.RDD[row.Row]) (int64, error) {
		var err error
		rows, err = r.CollectContext(jc)
		return int64(len(rows)), err
	})
	return rows, err
}

// CountDistributedContext is CountContext over the distributed wrapper.
func (q *QueryExecution) CountDistributedContext(ctx context.Context, sql string) (int64, error) {
	var n int64
	_, err := q.run(ctx, q.engine.ExecContext(), "count", sql, func(jc context.Context, r *rdd.RDD[row.Row]) (int64, error) {
		var err error
		n, err = r.CountContext(jc)
		return n, err
	})
	return n, err
}

// distributed wraps the executed plan's local RDD in the RemoteOrLocal
// dispatcher. Adaptive re-planning has already run on the coordinator
// (run's prepare): stages materialized here, decisions were taken once, and
// the decision list ships in every task so workers replay — never
// re-derive — the adapted plan. With observability on, task payloads carry
// the action's trace id so worker replies come back as TaskReply envelopes;
// with it off the wire format is byte-identical to the pre-observability
// protocol.
func (q *QueryExecution) distributed(local *rdd.RDD[row.Row], sql string, qs queryScope) *rdd.RDD[row.Row] {
	rt := q.engine.cluster
	rt.RefreshSession()
	sessionID, epoch := rt.session()
	decisions := decisionSpecs(q.Decisions)
	np := local.NumPartitions()
	planHash := q.PlanHash()
	payload := func(p int) []byte {
		task := &sqlwire.QueryTask{
			SessionID:     sessionID,
			Epoch:         epoch,
			SQL:           sql,
			Partition:     p,
			NumPartitions: np,
			PlanHash:      planHash,
			Decisions:     decisions,
		}
		if qs.id != "" {
			task.TraceID = qs.id
			task.ParentSpan = fmt.Sprintf("%s/p%d", qs.id, p)
		}
		b, err := sqlwire.EncodeQuery(task)
		if err != nil {
			return nil // undecodable payload fails worker-side → fallback
		}
		return b
	}
	decode := row.DecodeRows
	if qs.id != "" {
		// Traced replies arrive as TaskReply envelopes: unwrap the rows and
		// merge the worker's spans and counter samples into this
		// coordinator's observability state and the action's span sink.
		decode = func(data []byte) ([]row.Row, error) {
			reply, err := sqlwire.DecodeTaskReply(data)
			if err != nil {
				return nil, err
			}
			rt.absorbReply(reply, qs.spans)
			return row.DecodeRows(reply.Rows)
		}
	}
	return rdd.RemoteOrLocal(local, "sql.partition", payload, decode)
}

// decisionSpecs converts adaptive decisions to their wire form.
func decisionSpecs(ds []physical.Decision) []sqlwire.DecisionSpec {
	if len(ds) == 0 {
		return nil
	}
	out := make([]sqlwire.DecisionSpec, len(ds))
	for i, d := range ds {
		out[i] = sqlwire.DecisionSpec{
			Path: d.Path, Kind: d.Kind, Parts: d.Parts,
			BuildRight: d.BuildRight, Splits: d.Splits, Note: d.Note,
		}
	}
	return out
}

// DecisionsFromSpecs is the worker-side inverse of decisionSpecs.
func DecisionsFromSpecs(ds []sqlwire.DecisionSpec) []physical.Decision {
	if len(ds) == 0 {
		return nil
	}
	out := make([]physical.Decision, len(ds))
	for i, d := range ds {
		out[i] = physical.Decision{
			Path: d.Path, Kind: d.Kind, Parts: d.Parts,
			BuildRight: d.BuildRight, Splits: d.Splits, Note: d.Note,
		}
	}
	return out
}

// ApplyDecisions replays a coordinator's adaptive decision list over this
// query's static physical plan, recording the adapted tree as Executed so
// PlanHash and RDD-building reflect it — the worker-side half of adaptive
// plan parity.
func (q *QueryExecution) ApplyDecisions(ds []physical.Decision) error {
	if len(ds) == 0 {
		return nil
	}
	adapted, err := physical.ApplyDecisions(q.Physical, ds)
	if err != nil {
		return err
	}
	q.Executed = adapted
	q.Decisions = ds
	return nil
}

// ExecutedRDD lazily builds the result RDD of the executed (adapted when
// present) plan — what a worker runs partitions of.
func (q *QueryExecution) ExecutedRDD() *rdd.RDD[row.Row] {
	ec := q.engine.ExecContext()
	ec.Pool = nil
	ec.SpillFS = nil
	ec.Adaptive = nil
	return q.executedPlan().Execute(ec)
}

// ClusterSummary renders current membership and per-worker task counts —
// the "== Cluster ==" section of EXPLAIN ANALYZE under a cluster engine —
// with a per-worker rows/bytes/time breakdown derived from the merged
// spans the engine's trace ring retains.
func (rt *ClusterRuntime) ClusterSummary() string {
	ws := rt.coord.Workers()
	var sb strings.Builder
	fmt.Fprintf(&sb, "workers: %d registered\n", len(ws))
	reg := rt.e.RDDCtx.Metrics()
	fmt.Fprintf(&sb, "fallbacks: %d tasks computed locally\n",
		reg.Counter("cluster.fallback").Load())
	byWorker := make(map[string]WorkerActual)
	ring := newSpanActuals()
	for _, s := range rt.e.RDDCtx.Trace().Snapshot() {
		ring.Append(s)
	}
	_, workers := ring.actuals()
	for _, wa := range workers {
		byWorker[wa.Worker] = wa
	}
	for _, w := range ws {
		status := ""
		if w.Banned {
			status = " BLACKLISTED"
		}
		fmt.Fprintf(&sb, "  %s pid=%d inflight=%d failures=%d tasks=%d%s\n",
			w.ID, w.PID, w.Inflight, w.Failures,
			reg.Counter("cluster.tasks.worker."+w.ID).Load(), status)
		if wa, ok := byWorker[w.ID]; ok {
			fmt.Fprintf(&sb, "    spans=%d rows=%d bytes=%d time=%.1fms\n",
				wa.Tasks, wa.Rows, wa.Bytes, wa.Millis)
		}
	}
	if wa, ok := byWorker[""]; ok {
		fmt.Fprintf(&sb, "  local spans=%d rows=%d bytes=%d time=%.1fms\n",
			wa.Tasks, wa.Rows, wa.Bytes, wa.Millis)
	}
	return sb.String()
}
