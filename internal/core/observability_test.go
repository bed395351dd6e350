package core

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// A dispatch span counts for its worker only when no worker-origin span
// covers the same (worker, partition), whichever arrives first; local
// task spans total under worker "".
func TestSpanActualsCountsDispatchOnlyWithoutWorkerSpan(t *testing.T) {
	spans := []metrics.Span{
		{Kind: metrics.SpanStage, Name: "scan", Records: 9, DurNS: 3e6},
		{Kind: metrics.SpanTask, Name: "scan.remote", Worker: "w0", Partition: 0, Records: 4, DurNS: 9e6},
		{Kind: metrics.SpanTask, Name: "scan", Worker: "w0", Partition: 0, Records: 4, DurNS: 2e6},
		{Kind: metrics.SpanTask, Name: "scan", Worker: "w1", Partition: 1, Records: 3, DurNS: 1e6},
		{Kind: metrics.SpanTask, Name: "scan.remote", Worker: "w1", Partition: 1, Records: 3, DurNS: 8e6},
		{Kind: metrics.SpanTask, Name: "scan.remote", Worker: "w1", Partition: 2, Records: 2, DurNS: 5e6},
		{Kind: metrics.SpanTask, Name: "scan", Partition: 3, Records: 1, DurNS: 1e6},
		{Kind: metrics.SpanJob, Name: "collect:scan", Records: 10},
	}
	a := newSpanActuals()
	for _, s := range spans {
		a.Append(s)
	}
	stages, workers := a.actuals()
	if want := []StageActual{{Name: "scan", Rows: 9, Millis: 3}}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages = %+v, want %+v", stages, want)
	}
	want := []WorkerActual{
		{Worker: "", Tasks: 1, Rows: 1, Millis: 1},
		{Worker: "w0", Tasks: 1, Rows: 4, Millis: 2},
		{Worker: "w1", Tasks: 2, Rows: 5, Millis: 6},
	}
	if !reflect.DeepEqual(workers, want) {
		t.Fatalf("workers = %+v, want %+v", workers, want)
	}
}
