package rdd

import (
	"context"

	"repro/internal/metrics"
)

// Distributed trace context. A coordinator opens one trace per query and
// threads its id through job contexts; worker processes executing shipped
// partitions install the same id (plus the dispatching span's id as parent)
// so every span of one distributed query — on any process — carries the
// same trace id, Dapper-style. The optional sink additionally receives
// every span emitted under the context: a worker captures one task's spans
// to ship back piggybacked on the task reply, and a coordinator folds one
// query action's spans into its event-log entry.

// SpanSink receives the spans emitted under a job context.
// *metrics.TraceBuffer is one.
type SpanSink interface {
	Append(metrics.Span)
}

// traceCtx is the value carried through job contexts.
type traceCtx struct {
	id     string
	parent string
	sink   SpanSink // nil = none
}

type traceCtxKey struct{}

// WithTraceContext tags jc with a trace id, a parent span id, and an
// optional sink that additionally receives every span emitted under jc.
// Empty id and parent leave spans untagged; a nil sink disables capture.
func WithTraceContext(jc context.Context, id, parent string, sink SpanSink) context.Context {
	if jc == nil {
		jc = context.Background()
	}
	return context.WithValue(jc, traceCtxKey{}, traceCtx{id: id, parent: parent, sink: sink})
}

func traceFrom(jc context.Context) (traceCtx, bool) {
	if jc == nil {
		return traceCtx{}, false
	}
	tc, ok := jc.Value(traceCtxKey{}).(traceCtx)
	return tc, ok
}

// traceSink returns the capture sink installed on jc, if any — used by span
// emission sites to decide whether building a span is worthwhile even when
// the context-wide trace buffer is disabled.
func traceSink(jc context.Context) SpanSink {
	tc, _ := traceFrom(jc)
	return tc.sink
}

// emitSpan decorates s with the job context's trace id and parent span (when
// present and not already set) and appends it to the context trace buffer
// and the job context's sink. Nil-safe on both destinations.
func (c *Context) emitSpan(jc context.Context, s metrics.Span) {
	tc, ok := traceFrom(jc)
	if ok {
		if s.Trace == "" {
			s.Trace = tc.id
		}
		if s.Parent == "" {
			s.Parent = tc.parent
		}
	}
	c.Trace().Append(s)
	if tc.sink != nil {
		tc.sink.Append(s)
	}
}
