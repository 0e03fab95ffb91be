// Trace exposure: the ?trace=1 inline span tree and GET /debug/traces,
// the HTTP surface of internal/trace's per-shard ring buffers.

package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphitti/internal/trace"
)

// traceRequested reports whether the request asked for its own span tree
// inline (?trace=1). Honored on every route; it also forces the trace
// into the ring past sampling.
func traceRequested(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// traceBuffer holds the response body of a ?trace=1 request until its
// root span has finished, so the completed span tree can be folded into
// the envelope. Headers pass straight through to the real writer (they
// are not flushed until the buffered WriteHeader).
type traceBuffer struct {
	dst    http.ResponseWriter
	status int
	buf    []byte
}

func (b *traceBuffer) Header() http.Header { return b.dst.Header() }

func (b *traceBuffer) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *traceBuffer) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// tracedEnvelope is what a ?trace=1 request receives: the handler's
// normal JSON payload under "response", plus the request's span tree.
type tracedEnvelope struct {
	Trace    *trace.Node     `json:"trace"`
	Response json.RawMessage `json:"response,omitempty"`
}

// flush releases the buffered response. JSON bodies are wrapped in the
// traced envelope; anything else (snapshots, 204s) is sent verbatim —
// the trace is still in the ring for GET /debug/traces either way.
func (b *traceBuffer) flush(root *trace.Span) {
	status := b.status
	if status == 0 {
		status = http.StatusOK
	}
	ct := b.Header().Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") && len(b.buf) > 0 && json.Valid(b.buf) {
		// The handler's Content-Length, if it set one, is the payload's.
		b.Header().Del("Content-Length")
		b.dst.WriteHeader(status)
		_ = json.NewEncoder(b.dst).Encode(tracedEnvelope{
			Trace:    root.Tree(),
			Response: json.RawMessage(b.buf),
		})
		return
	}
	b.dst.WriteHeader(status)
	if len(b.buf) > 0 {
		_, _ = b.dst.Write(b.buf)
	}
}

// tracesView is the GET /debug/traces payload.
type tracesView struct {
	Count  int           `json:"count"`
	Traces []*trace.Node `json:"traces"`
}

// debugTraces serves the retained traces, newest-last within each
// shard's ring. Filters: ?shard=k (one shard's ring; -1 for requests
// that never touched a shard), ?route=<pattern> (exact route match),
// ?min=<duration> (at least this slow, e.g. 10ms).
func (s *server) debugTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shard := trace.ShardAll
	if raw := q.Get("shard"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil || k < -1 {
			jsonError(w, r, http.StatusBadRequest,
				fmt.Sprintf("bad shard %q: want -1 or a shard index", raw))
			return
		}
		shard = k
	}
	var minDur time.Duration
	if raw := q.Get("min"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			jsonError(w, r, http.StatusBadRequest,
				fmt.Sprintf("bad min %q: want a duration like 10ms", raw))
			return
		}
		minDur = d
	}
	route := q.Get("route")
	out := tracesView{Traces: []*trace.Node{}}
	for _, sp := range s.tracer.Traces(shard) {
		if minDur > 0 && sp.Duration() < minDur {
			continue
		}
		if route != "" && sp.Attr("route") != route {
			continue
		}
		out.Traces = append(out.Traces, sp.Tree())
	}
	out.Count = len(out.Traces)
	writeJSON(w, http.StatusOK, out)
}
