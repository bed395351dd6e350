package core

// Metrics federation: the coordinator pulls (or receives, piggybacked on
// task replies) each worker's registry snapshot and exposes the merged view
// with worker labels — the Monarch-style pull model over the cluster's
// existing CRC-framed task protocol, with no second transport.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster/sqlwire"
	"repro/internal/metrics"
)

// absorbReply merges one traced task reply into coordinator state: the
// worker's spans (already tagged with trace id, parent span and worker
// identity) append to the engine trace ring and to the dispatching action's
// span sink, and its counter samples replace the previous snapshot for that
// worker.
func (rt *ClusterRuntime) absorbReply(r *sqlwire.TaskReply, query *spanActuals) {
	if r == nil {
		return
	}
	tb := rt.e.RDDCtx.Trace()
	for _, s := range r.Spans {
		tb.Append(s)
		query.Append(s)
	}
	if len(r.Counters) > 0 {
		rt.storeSamples(r.Worker, r.Counters)
	}
}

func (rt *ClusterRuntime) storeSamples(worker string, samples []sqlwire.CounterSample) {
	if worker == "" {
		return
	}
	rt.obsMu.Lock()
	defer rt.obsMu.Unlock()
	m := rt.obsWorkers[worker]
	if m == nil {
		m = make(map[string]int64)
		rt.obsWorkers[worker] = m
	}
	for _, s := range samples {
		m[s.Name] = s.Value
	}
}

// harvestTimeout bounds one worker's federation pull; a wedged worker
// costs the harvest this much, not forever.
const harvestTimeout = 2 * time.Second

// Harvest pulls a full registry snapshot from every registered,
// non-blacklisted worker over the task protocol ("obs.fetch"). Workers
// that fail to answer keep their previous snapshot — federation is
// best-effort by design; liveness is the heartbeat layer's job. Returns
// how many workers answered.
func (rt *ClusterRuntime) Harvest(ctx context.Context) int {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := sqlwire.EncodeObsRequest(&sqlwire.ObsRequest{})
	if err != nil {
		return 0
	}
	ws := rt.coord.Workers()
	type res struct {
		worker  string
		samples []sqlwire.CounterSample
	}
	ch := make(chan res, len(ws))
	n := 0
	for _, w := range ws {
		if w.Banned {
			continue
		}
		n++
		go func(id string) {
			hc, cancel := context.WithTimeout(ctx, harvestTimeout)
			defer cancel()
			data, err := rt.coord.RunOnWorker(hc, id, "obs.fetch", req)
			if err != nil {
				ch <- res{worker: id}
				return
			}
			reply, err := sqlwire.DecodeObsReply(data)
			if err != nil {
				ch <- res{worker: id}
				return
			}
			ch <- res{worker: id, samples: reply.Counters}
		}(w.ID)
	}
	answered := 0
	for i := 0; i < n; i++ {
		r := <-ch
		if r.samples != nil {
			rt.storeSamples(r.worker, r.samples)
			answered++
		}
	}
	return answered
}

// StartHarvester runs Harvest on a fixed period until Close.
func (rt *ClusterRuntime) StartHarvester(interval time.Duration) {
	rt.mu.Lock()
	if rt.harvestStop != nil {
		rt.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	rt.harvestStop = stop
	rt.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rt.Harvest(context.Background())
			}
		}
	}()
}

// WorkerSample is one federated metric value in a merged snapshot.
type WorkerSample struct {
	Worker string
	Name   string
	Value  int64
}

// FederatedSnapshot returns the harvested per-worker samples filtered by
// pattern (metrics.MatchGlob semantics), sorted by (name, worker).
func (rt *ClusterRuntime) FederatedSnapshot(pattern string) []WorkerSample {
	rt.obsMu.Lock()
	out := make([]WorkerSample, 0, 64)
	for worker, m := range rt.obsWorkers {
		for name, v := range m {
			if !metrics.MatchGlob(pattern, name) {
				continue
			}
			out = append(out, WorkerSample{Worker: worker, Name: name, Value: v})
		}
	}
	rt.obsMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// WorkerCounter returns the latest harvested value of one worker's counter.
func (rt *ClusterRuntime) WorkerCounter(worker, name string) int64 {
	rt.obsMu.Lock()
	defer rt.obsMu.Unlock()
	return rt.obsWorkers[worker][name]
}

// WriteFederatedMetrics renders the merged per-worker view in the /metrics
// text format with worker labels: `name{worker=id} value`.
func (rt *ClusterRuntime) WriteFederatedMetrics(w io.Writer, pattern string) error {
	for _, s := range rt.FederatedSnapshot(pattern) {
		if _, err := fmt.Fprintf(w, "%s{worker=%s} %d\n", s.Name, s.Worker, s.Value); err != nil {
			return err
		}
	}
	return nil
}
