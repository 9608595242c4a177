package main

// Tracing for the per-layer run. Spans are recorded only here, in the
// benchmark's own code, around calls into each layer's public surface:
// remote.Register calls (the client side), a transport.Endpoint wrapper
// around each nettcp.Mesh, a stable.Storage wrapper around each engine, and
// the lifecycle calls of the mesh (stable.OpenBackend, core.NewNode,
// Node.Crash, Node.Recover). Spans of one operation share the core op id:
// clients learn it from the reply, envelopes carry it in wire.Envelope.Op,
// and storage spans are attributed through the register named in the
// record (writing/<reg>, written/<reg>).

import (
	"strings"
	"sync"
	"time"

	"recmem/internal/causal"
	"recmem/internal/metrics"
	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's epoch; instantaneous events (a send) have Start == End.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   int32  `json:"node"`
	Op     uint64 `json:"op,omitempty"`
	Reg    string `json:"reg,omitempty"`
	Record string `json:"record,omitempty"` // first record of a storage call
	Msg    string `json:"msg,omitempty"`    // envelope kind of a send
	To     int32  `json:"to"`
	N      int    `json:"n,omitempty"` // records in a batch
	Bytes  int    `json:"bytes,omitempty"`
	// Rounds and LogDepth are the core meters' readings for an op.
	Rounds   int   `json:"rounds,omitempty"`
	LogDepth int   `json:"log_depth,omitempty"`
	Start    int64 `json:"start_ns"`
	End      int64 `json:"end_ns"`
}

// tracer collects spans and owns the core meters of a traced run.
type tracer struct {
	t0   time.Time
	logs *causal.Meter
	msgs *metrics.OpMeter

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), logs: causal.NewMeter(), msgs: metrics.NewOpMeter(),
		spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin starts a span; the returned func stamps its end and records it. On
// a nil tracer both are no-ops, so untraced code paths call it unguarded.
func (t *tracer) begin() func(span) {
	if t == nil {
		return func(span) {}
	}
	start := t.now()
	return func(s span) {
		s.Start, s.End = start, t.now()
		t.add(s)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// regOf returns the register a record belongs to: the part after the role
// prefix ("written/x" → "x"); records without one name no register.
func regOf(record string) string {
	if i := strings.IndexByte(record, '/'); i >= 0 {
		return record[i+1:]
	}
	return ""
}

// tracedEndpoint records every envelope handed to the wrapped endpoint.
type tracedEndpoint struct {
	inner transport.Endpoint
	tr    *tracer
}

// tracedBatchEndpoint is the wrapper of an endpoint that batches: it keeps
// the BatchSender surface, so the node's outbox still sends batch frames.
type tracedBatchEndpoint struct {
	*tracedEndpoint
	bs transport.BatchSender
}

// wrapEndpoint wraps ep, implementing transport.BatchSender exactly when ep
// does.
func (t *tracer) wrapEndpoint(ep transport.Endpoint) transport.Endpoint {
	te := &tracedEndpoint{inner: ep, tr: t}
	if bs, ok := ep.(transport.BatchSender); ok {
		return &tracedBatchEndpoint{tracedEndpoint: te, bs: bs}
	}
	return te
}

func (e *tracedEndpoint) ID() int32                  { return e.inner.ID() }
func (e *tracedEndpoint) Recv() <-chan wire.Envelope { return e.inner.Recv() }

func (e *tracedEndpoint) Send(env wire.Envelope) {
	e.record(env, 1)
	e.inner.Send(env)
}

// SendBatch records each envelope of the frame; N on the first one carries
// the frame's size, so frames and envelopes can both be counted.
func (e *tracedBatchEndpoint) SendBatch(envs []wire.Envelope) {
	for i, env := range envs {
		n := 0
		if i == 0 {
			n = len(envs)
		}
		e.record(env, n)
	}
	e.bs.SendBatch(envs)
}

func (e *tracedEndpoint) record(env wire.Envelope, frame int) {
	now := e.tr.now()
	e.tr.add(span{Layer: "nettcp", Name: "Send", Node: env.From, To: env.To, Op: env.Op,
		Reg: env.Reg, Msg: env.Kind.String(), N: frame, Bytes: wire.Size(env), Start: now, End: now})
}

// tracedStore times every call into the wrapped engine.
type tracedStore struct {
	inner stable.Storage
	node  int32
	tr    *tracer
}

func (s *tracedStore) timed(name, record string, n int) func() {
	start := s.tr.now()
	return func() {
		s.tr.add(span{Layer: "stable", Name: name, Node: s.node, Record: record, Reg: regOf(record),
			N: n, Start: start, End: s.tr.now()})
	}
}

func (s *tracedStore) Store(record string, data []byte) error {
	defer s.timed("Store", record, 1)()
	return s.inner.Store(record, data)
}

func (s *tracedStore) StoreBatch(recs []stable.Record) error {
	first := ""
	if len(recs) > 0 {
		first = recs[0].Name
	}
	defer s.timed("StoreBatch", first, len(recs))()
	return s.inner.StoreBatch(recs)
}

func (s *tracedStore) Retrieve(record string) ([]byte, bool, error) {
	defer s.timed("Retrieve", record, 1)()
	return s.inner.Retrieve(record)
}

func (s *tracedStore) Records(prefix string) ([]string, error) {
	defer s.timed("Records", prefix, 0)()
	return s.inner.Records(prefix)
}

func (s *tracedStore) Close() error { return s.inner.Close() }

type tracedScanner struct {
	s  *tracedStore
	sc stable.Scanner
}

func (t tracedScanner) Scan(prefix string, fn func(string) error) error {
	defer t.s.timed("Scan", prefix, 0)()
	return t.sc.Scan(prefix, fn)
}

type tracedDeleter struct {
	s  *tracedStore
	de stable.Deleter
}

func (t tracedDeleter) Delete(record string) error {
	defer t.s.timed("Delete", record, 1)()
	return t.de.Delete(record)
}

// wrapStorage wraps st and forwards exactly the optional interfaces st
// implements (Scanner, Deleter, CompactionStats): a wrapper that hid one
// would send the node down another code path than the untraced run takes —
// Records instead of Scan during recovery, for one.
func (t *tracer) wrapStorage(node int32, st stable.Storage) stable.Storage {
	base := &tracedStore{inner: st, node: node, tr: t}
	sc, isSc := st.(stable.Scanner)
	de, isDe := st.(stable.Deleter)
	cs, isCs := st.(stable.CompactionStats)
	tsc, tde := tracedScanner{base, sc}, tracedDeleter{base, de}
	switch {
	case isSc && isDe && isCs:
		return struct {
			*tracedStore
			tracedScanner
			tracedDeleter
			stable.CompactionStats
		}{base, tsc, tde, cs}
	case isSc && isDe:
		return struct {
			*tracedStore
			tracedScanner
			tracedDeleter
		}{base, tsc, tde}
	case isSc && isCs:
		return struct {
			*tracedStore
			tracedScanner
			stable.CompactionStats
		}{base, tsc, cs}
	case isDe && isCs:
		return struct {
			*tracedStore
			tracedDeleter
			stable.CompactionStats
		}{base, tde, cs}
	case isSc:
		return struct {
			*tracedStore
			tracedScanner
		}{base, tsc}
	case isDe:
		return struct {
			*tracedStore
			tracedDeleter
		}{base, tde}
	case isCs:
		return struct {
			*tracedStore
			stable.CompactionStats
		}{base, cs}
	default:
		return base
	}
}

// client records one remote.Register call, attributed to the node that
// served it and to the core op id its reply carried.
func (t *tracer) client(node int, op uint64, reg string, write bool, start, end time.Time) {
	if t == nil {
		return
	}
	name := "Register.Read"
	if write {
		name = "Register.Write"
	}
	t.add(span{Layer: "remote", Name: name, Node: int32(node), Op: op, Reg: reg,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}
