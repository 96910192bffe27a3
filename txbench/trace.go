package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
	"txconflict/internal/txkv"
)

// reqIDHeader carries the client span's request id to the server
// span. The txkv server ignores it.
const reqIDHeader = "X-Txbench-Request"

// keepSpans bounds each span buffer. Counts and sums cover every
// span; only the first keepSpans of each buffer are written out.
const keepSpans = 1 << 14

// span is one timed call at a layer boundary. Times are ns since the
// tracer was made; parent is the span that caused it (0 = none).
type span struct {
	id, parent uint64
	layer      string
	start, end int64
}

// spanBuf is a bounded, preallocated span list, so recording a span
// does not allocate inside the measured window.
type spanBuf struct{ s []span }

func newSpanBuf() spanBuf { return spanBuf{s: make([]span, 0, keepSpans)} }

func (b *spanBuf) add(sp span) {
	if len(b.s) < cap(b.s) {
		b.s = append(b.s, sp)
	}
}

// lane holds one worker's or one user's spans and sums. Its own
// goroutine writes it; the mutex orders those writes with the resets
// and reads of the main goroutine.
type lane struct {
	mu sync.Mutex

	// client spans (per user)
	clientNs int64
	clients  uint64

	// store spans (per in-process worker): one per Store.Apply
	applyNs  int64
	apply    hist
	applyTxs uint64

	// stm spans (per worker id): one per atomic block
	txs    uint64
	txNs   int64
	reads  uint64
	writes uint64
	spans  spanBuf

	// Owned by the worker's goroutine alone (the one that calls
	// Store.Apply and, from inside it, TraceTx), so unguarded.
	parent uint64 // id of the open store span, parent of its stm span
	seq    uint64 // last span id issued on this lane
}

// tracer records the traced run: client spans around each request,
// server spans from a wrapper around the txkv handler, store spans
// around each in-process Store.Apply, and one stm span per
// transaction from its stm.Tracer hook. It is the benchmark's own
// instrumentation, installed from outside the program.
type tracer struct {
	t0    time.Time
	lanes []*lane // indexed by user id, which is also the worker id

	srvMu    sync.Mutex
	srvNs    int64
	srvN     uint64
	srvHist  hist
	reqBytes uint64
	rspBytes uint64
	srv      spanBuf
}

func newTracer(workers int) *tracer {
	tr := &tracer{t0: time.Now(), srv: newSpanBuf()}
	for i := 0; i < workers; i++ {
		tr.lanes = append(tr.lanes, &lane{spans: newSpanBuf()})
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// reset drops everything recorded so far (warm-up); call it while no
// request is in flight.
func (tr *tracer) reset() {
	for _, l := range tr.lanes {
		l.mu.Lock()
		l.clientNs, l.clients = 0, 0
		l.applyNs, l.apply, l.applyTxs = 0, hist{}, 0
		l.txs, l.txNs, l.reads, l.writes = 0, 0, 0, 0
		l.spans.s = l.spans.s[:0]
		l.mu.Unlock()
	}
	tr.srvMu.Lock()
	tr.srvNs, tr.srvN, tr.srvHist = 0, 0, hist{}
	tr.reqBytes, tr.rspBytes = 0, 0
	tr.srv.s = tr.srv.s[:0]
	tr.srvMu.Unlock()
}

// client records one request's client span.
func (tr *tracer) client(user int, id uint64, start, end int64) {
	l := tr.lanes[user]
	l.mu.Lock()
	l.clientNs += end - start
	l.clients++
	l.spans.add(span{id: id, layer: "client", start: start, end: end})
	l.mu.Unlock()
}

// TraceTx implements stm.Tracer: one stm span per atomic block,
// parented by the worker's open store span in-process and counted in
// aggregate behind the server. Transactions of no load worker (the
// workload check's reads) are not the load's and are skipped.
func (tr *tracer) TraceTx(t *stm.TxTrace) {
	if t.Worker < 0 || t.Worker >= len(tr.lanes) {
		return
	}
	l := tr.lanes[t.Worker]
	start := t.StartUnixNs - tr.t0.UnixNano()
	l.seq++
	sp := span{id: laneID(t.Worker, l.seq), parent: l.parent,
		layer: "stm", start: start, end: start + t.DurNs}
	l.mu.Lock()
	l.txs++
	l.txNs += t.DurNs
	l.reads += uint64(len(t.Reads))
	l.writes += uint64(len(t.Writes))
	l.spans.add(sp)
	l.mu.Unlock()
}

// laneID numbers the spans a lane issues; request ids, which number
// client spans, stay far below it.
func laneID(worker int, seq uint64) uint64 { return uint64(worker+1)<<48 | seq }

// localSender calls the store in-process as worker. In the traced run
// it calls Store.Apply op by op, inside a store span each, which is
// what Store.ApplyBatch does.
func localSender(s *txkv.Store, worker int, r *rng.Rand, tr *tracer) sender {
	if tr == nil {
		return func(_ uint64, ops []txkv.Op) ([]txkv.Result, error) {
			return s.ApplyBatch(worker, r, ops), nil
		}
	}
	l := tr.lanes[worker]
	return func(reqID uint64, ops []txkv.Op) ([]txkv.Result, error) {
		out := make([]txkv.Result, len(ops))
		for i, op := range ops {
			l.seq++
			id := laneID(worker, l.seq)
			l.parent = id
			start := tr.now()
			out[i] = s.Apply(worker, r, op)
			end := tr.now()
			l.parent = 0
			l.mu.Lock()
			l.applyNs += end - start
			l.apply.add(end - start)
			l.applyTxs++
			l.spans.add(span{id: id, parent: reqID, layer: "store", start: start, end: end})
			l.mu.Unlock()
		}
		return out, nil
	}
}

// countingReader counts the request body bytes the handler reads.
type countingReader struct {
	io.ReadCloser
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += uint64(n)
	return n, err
}

// countingWriter counts the response body bytes the handler writes.
type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += uint64(n)
	return n, err
}

// wrapServer times each call of the txkv handler as a server span,
// linked to its client span through reqIDHeader, and counts body
// bytes both ways.
func (tr *tracer) wrapServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		body := &countingReader{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := tr.now()
		h.ServeHTTP(cw, r)
		end := tr.now()
		tr.srvMu.Lock()
		tr.srvNs += end - start
		tr.srvN++
		tr.srvHist.add(end - start)
		tr.reqBytes += body.n
		tr.rspBytes += cw.n
		tr.srv.add(span{id: id | 1<<62, parent: id, layer: "server", start: start, end: end})
		tr.srvMu.Unlock()
	})
}

// idTransport stamps the current request id on each outgoing request.
// One per user, set by that user's goroutine before each call.
type idTransport struct {
	next http.RoundTripper
	id   uint64
}

func (t *idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(reqIDHeader, strconv.FormatUint(t.id, 10))
	return t.next.RoundTrip(r)
}

// dump writes every kept span as one JSON object per line.
func (tr *tracer) dump(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	n := 0
	write := func(b *spanBuf) {
		for _, sp := range b.s {
			fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"layer\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				sp.id, sp.parent, sp.layer, sp.start, sp.end)
			n++
		}
	}
	for _, l := range tr.lanes {
		l.mu.Lock()
		write(&l.spans)
		l.mu.Unlock()
	}
	tr.srvMu.Lock()
	write(&tr.srv)
	tr.srvMu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
