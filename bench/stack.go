package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/tstore"
)

// stack is the serving system under test, hosted in-process on loopback
// listeners: service.Server replicas, optionally behind a fleet.Router, and
// optionally one tstore.Store attached to the single replica.
type stack struct {
	servers  []*service.Server
	router   *fleet.Router
	store    *tstore.Store
	storeDir string
	fs       *tracedFS // the store's filesystem when tracing, else nil
	addrs    []string  // replica addresses, index-aligned with servers
	base     string    // where clients send requests

	https []*http.Server
	done  []chan struct{}
}

type stackConfig struct {
	replicas int
	router   bool
	store    bool
	workDir  string // parent of the store's temporary directory
}

// startStack brings a stack up. rec, when non-nil, wraps each layer's handler
// with span recording (active only while rec is on).
func startStack(cfg stackConfig, rec *recorder) (*stack, error) {
	st := &stack{}
	scfg := service.Config{}
	if cfg.store {
		if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.workDir, "store-")
		if err != nil {
			return nil, err
		}
		st.storeDir = dir
		var opts tstore.Options
		if rec != nil {
			st.fs = &tracedFS{rec: rec, next: tstore.OSFS()}
			opts.FS = st.fs
		}
		if st.store, err = tstore.Open(filepath.Join(dir, "tstore"), opts); err != nil {
			st.close()
			return nil, err
		}
		scfg.Store = st.store
	}
	for i := 0; i < cfg.replicas; i++ {
		s := service.New(scfg)
		var h http.Handler = s.Handler()
		if rec != nil {
			parent := "client"
			if cfg.router {
				parent = "fleet"
			}
			h = rec.handler("service", parent, i, h)
		}
		addr, err := st.serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, s)
		st.addrs = append(st.addrs, addr)
	}
	st.base = "http://" + st.addrs[0]
	if cfg.router {
		// Router defaults, except hedging: fleet.Router.dispatch cancels the
		// hedge race's context when it returns, before handleProxy has copied
		// the winning response, so bodies beyond the first ~4 KB buffered
		// read arrive truncated under a 200. With hedging off the attempt runs
		// on the request's own context and the body arrives whole.
		rt, err := fleet.New(fleet.Config{Replicas: st.addrs, HedgeDelay: -1})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = rt
		var h http.Handler = rt.Handler()
		if rec != nil {
			h = rec.handler("fleet", "client", -1, h)
		}
		addr, err := st.serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.base = "http://" + addr
	}
	return st, nil
}

// serve starts an HTTP server for h on a loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	st.https = append(st.https, hs)
	st.done = append(st.done, done)
	return ln.Addr().String(), nil
}

// close stops every server and waits for them, then closes and removes the
// store.
func (st *stack) close() error {
	if st.router != nil {
		st.router.Close()
	}
	for i, hs := range st.https {
		hs.Close()
		<-st.done[i]
	}
	for _, s := range st.servers {
		s.BeginDrain()
	}
	var err error
	if st.store != nil {
		if cerr := st.store.Close(); cerr != nil {
			err = fmt.Errorf("close store: %w", cerr)
		}
	}
	if st.storeDir != "" {
		if rerr := os.RemoveAll(st.storeDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// serviceStats snapshots every replica's counters.
func (st *stack) serviceStats() []service.Stats {
	out := make([]service.Stats, len(st.servers))
	for i, s := range st.servers {
		out[i] = s.Stats()
	}
	return out
}
