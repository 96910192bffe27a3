package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
	"txconflict/internal/txkv"
)

// users is the load's user (or connection) count, and also txkvd's
// pool size on the HTTP workload: the 2 CPUs of the box the
// benchmark was sized on.
const users = 2

// sut is one system under test: a store on the runtime txkvd ships
// (stm.DefaultConfig with the metrics plane on), plus, on the HTTP
// workload, a txkv.Server behind net/http on a loopback port.
type sut struct {
	spec  *spec
	w     *txkv.Workload
	store *txkv.Store
	seed  uint64
	rec   *tracer

	sv     *txkv.Server
	srv    *http.Server
	base   string
	served chan error
	// conns counts the connections the server accepted. It is
	// reported, not checked: txkv.HTTPClient does not read a response
	// to EOF, so now and then the transport drops a connection and
	// dials a new one.
	conns atomic.Int64
}

// build makes the system under test. It is what setup_s times.
func build(sp *spec, seed uint64, rec *tracer) (*sut, error) {
	w, err := txkv.ByName(sp.traffic, txkv.Options{})
	if err != nil {
		return nil, err
	}
	cfg := stm.DefaultConfig()
	cfg.Lazy = sp.batch > 0
	cfg.CommitBatch = sp.batch
	cfg.Metrics = metrics.NewPlane(users, metrics.DefaultSampleN)
	if rec != nil {
		cfg.Trace = rec
	}
	x := &sut{spec: sp, w: w, store: w.NewStore(txkv.Config{STM: cfg}), seed: seed, rec: rec}
	if !sp.http {
		return x, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	x.sv = txkv.NewServer(x.store, users, seed)
	var h http.Handler = x.sv
	if rec != nil {
		h = rec.wrapServer(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	x.srv = &http.Server{Handler: mux, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			x.conns.Add(1)
		}
	}}
	x.base = "http://" + ln.Addr().String()
	x.served = make(chan error, 1)
	go func() { x.served <- x.srv.Serve(ln) }()
	return x, nil
}

// close stops the server, if any, and waits for it.
func (x *sut) close() {
	if x.srv == nil {
		return
	}
	x.srv.Close()
	<-x.served
	x.sv.Close()
}

// newLoad makes the load's users, each with its own op stream, its
// own transaction stream and its own connection (or worker id).
func (x *sut) newLoad() *load {
	d := &load{rec: x.rec}
	root := rng.New(x.seed)
	for u := 0; u < users; u++ {
		ops := root.Split()
		txs := root.Split()
		usr := &user{id: u, w: x.w.NewUser(u), r: ops, ops: make([]txkv.Op, batchOps)}
		if x.spec.http {
			usr.send = x.httpSender()
		} else {
			usr.send = localSender(x.store, u, txs, x.rec)
		}
		d.users = append(d.users, usr)
	}
	return d
}

// httpSender is one keep-alive connection's client: txkv.HTTPClient
// on a transport of its own, which stamps request ids when traced.
func (x *sut) httpSender() sender {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	hc := &txkv.HTTPClient{Base: x.base, C: &http.Client{Transport: tr}}
	if x.rec == nil {
		return func(_ uint64, ops []txkv.Op) ([]txkv.Result, error) { return hc.Do(ops) }
	}
	idt := &idTransport{next: tr}
	hc.C.Transport = idt
	return func(id uint64, ops []txkv.Op) ([]txkv.Result, error) {
		idt.id = id
		return hc.Do(ops)
	}
}

// counters is one reading of the program's public counters.
type counters struct {
	stats map[string]uint64
	plane metrics.PlaneSnapshot
	at    time.Time
}

func (x *sut) read() counters {
	rt := x.store.Runtime()
	return counters{stats: rt.Stats.Snapshot(), plane: rt.Metrics().Snapshot(), at: time.Now()}
}

// verify is the correctness gate, run once traffic has stopped: the
// store's structural invariants (through GET /v1/check on the HTTP
// workload) and the workload's own check against the run's totals.
func (x *sut) verify(d *load) error {
	for _, u := range d.users {
		if u.violation != nil {
			return u.violation
		}
	}
	if x.spec.http {
		if err := x.remoteCheck(); err != nil {
			return err
		}
	} else if err := x.store.CheckInvariants(); err != nil {
		return err
	}
	var tot txkv.Totals
	for _, u := range d.users {
		tot.Adds += u.adds
	}
	return x.w.Check(x.store, tot)
}

// remoteCheck asks the server for its invariant check, on a
// connection of its own.
func (x *sut) remoteCheck() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(x.base + "/v1/check")
	if err != nil {
		return fmt.Errorf("GET /v1/check: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/check: %s: %s", resp.Status, msg)
	}
	return nil
}

// checkCommits compares the commits the runtime counted between two
// quiescent readings with the ops the users saw answered: every op
// answered without error committed exactly one transaction, and ops
// of failed requests may or may not have.
func checkCommits(before, after counters, okOps, lostOps uint64) error {
	got := after.stats["commits"] - before.stats["commits"]
	if got < okOps || got > okOps+lostOps {
		return fmt.Errorf("runtime counted %d commits in the window, users saw %d ops answered (+%d lost)",
			got, okOps, lostOps)
	}
	return nil
}
