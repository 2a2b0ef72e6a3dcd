package fleet

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// Harness runs an in-process replica fleet for tests and the chaos suite:
// each replica is a real HTTP server on a loopback port whose port survives
// "process death". Kill severs every live connection and makes new requests
// die with a connection reset (no HTTP response — exactly what a killed
// process looks like at L7), and discards the replica's handler so its
// in-memory state (model cache, session pools, staged telemetry) is lost.
// Revive builds a fresh handler from the factory — a restarted process with
// a cold cache on the same address.
type Harness struct {
	replicas []*HarnessReplica
}

// HarnessReplica is one killable in-process backend.
type HarnessReplica struct {
	ln      net.Listener
	srv     *http.Server
	alive   atomic.Bool
	handler atomic.Value // http.Handler
	factory func() http.Handler

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	kills   atomic.Int64
	revives atomic.Int64
}

// NewHarness starts n replicas, each serving factory(i)'s handler. The
// factory runs once per replica per (re)start — it must return fresh state
// every call (Revive reuses it to model a process restart).
func NewHarness(n int, factory func(i int) http.Handler) (*Harness, error) {
	h := &Harness{}
	for i := 0; i < n; i++ {
		i := i
		rep, err := newHarnessReplica(func() http.Handler { return factory(i) })
		if err != nil {
			h.Close()
			return nil, err
		}
		h.replicas = append(h.replicas, rep)
	}
	return h, nil
}

func newHarnessReplica(factory func() http.Handler) (*HarnessReplica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rep := &HarnessReplica{ln: ln, factory: factory, conns: make(map[net.Conn]struct{})}
	rep.handler.Store(factory())
	rep.alive.Store(true)
	rep.srv = &http.Server{
		Handler: http.HandlerFunc(rep.serve),
		ConnState: func(c net.Conn, st http.ConnState) {
			rep.mu.Lock()
			switch st {
			case http.StateNew:
				rep.conns[c] = struct{}{}
			case http.StateClosed, http.StateHijacked:
				delete(rep.conns, c)
			}
			rep.mu.Unlock()
		},
	}
	go func() { _ = rep.srv.Serve(ln) }()
	return rep, nil
}

// serve dispatches to the live handler, or kills the connection outright
// while the replica is "dead": the client sees a reset/EOF, never an HTTP
// status — the failure mode of a killed process, which the router must
// classify as a transport error and fail over.
func (rep *HarnessReplica) serve(w http.ResponseWriter, r *http.Request) {
	if !rep.alive.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	rep.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// Addr is the replica's "host:port" — stable across Kill/Revive, exactly
// what the router's ring holds.
func (rep *HarnessReplica) Addr() string { return rep.ln.Addr().String() }

// Kill simulates abrupt process death: in-flight and future connections are
// severed and the handler (with all its in-memory state) is dropped. The
// port keeps listening so the address stays valid for Revive.
func (rep *HarnessReplica) Kill() {
	if !rep.alive.Swap(false) {
		return
	}
	rep.kills.Add(1)
	rep.mu.Lock()
	for c := range rep.conns {
		c.Close()
	}
	rep.mu.Unlock()
}

// Revive restarts the "process": a fresh handler from the factory, cold
// caches, same address.
func (rep *HarnessReplica) Revive() {
	if rep.alive.Load() {
		return
	}
	rep.revives.Add(1)
	rep.handler.Store(rep.factory())
	rep.alive.Store(true)
}

// Addrs lists every replica address in index order.
func (h *Harness) Addrs() []string {
	out := make([]string, len(h.replicas))
	for i, rep := range h.replicas {
		out[i] = rep.Addr()
	}
	return out
}

// Kill severs replica i (idempotent).
func (h *Harness) Kill(i int) { h.replicas[i].Kill() }

// Revive restarts replica i (idempotent).
func (h *Harness) Revive(i int) { h.replicas[i].Revive() }

// Close shuts every replica down.
func (h *Harness) Close() {
	for _, rep := range h.replicas {
		if rep == nil {
			continue
		}
		rep.srv.Close()
		rep.ln.Close()
	}
}

// String aids test logging.
func (h *Harness) String() string {
	return fmt.Sprintf("harness(%d replicas)", len(h.replicas))
}
