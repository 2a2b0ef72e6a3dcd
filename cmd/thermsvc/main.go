// Command thermsvc serves the thermal simulation stack over HTTP/JSON: a
// long-lived process that amortizes model compilation across requests with
// a single-flight LRU cache and ingests power traces as streams.
//
// Usage:
//
//	thermsvc -addr :8080 -cache 32 -concurrency 4 -queue 64
//	thermsvc -store /var/lib/thermsvc/tstore   # enable telemetry persistence + /v1/query
//	thermsvc -addr :8080 -fleet 10.0.0.1:8080,10.0.0.2:8080,10.0.0.3:8080
//
// With -fleet the process is a routing front end instead of a solver: it
// spreads requests across the listed replicas by consistent-hash model
// affinity, health-probes them, retries/hedges/fails over around dead ones
// (DESIGN.md §13), and serves the fleet block on its own /v1/stats. All
// solver flags (-cache, -concurrency, ...) are ignored in fleet mode.
//
// SIGTERM/SIGINT triggers a graceful drain: new requests shed with 503 +
// Retry-After while in-flight solves get up to -drain to finish, then the
// store flushes and closes.
//
// Example requests (see DESIGN.md §7 for the full API):
//
//	# steady state of the EV6 under oil
//	curl -s localhost:8080/v1/steady -d '{
//	  "model": {"floorplan":"ev6","package":"oil-silicon","rconv":1.0},
//	  "power": {"IntReg": 2.0, "Dcache": 1.2}}'
//
//	# stream a ptrace file straight into a transient
//	curl -s -H 'Content-Type: text/plain' --data-binary @chip.ptrace \
//	  'localhost:8080/v1/transient?floorplan=ev6&package=air-sink&max_points=50'
//
//	# cache/queue/latency counters
//	curl -s localhost:8080/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/tstore"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheCap    = flag.Int("cache", 32, "compiled-model cache capacity")
		concurrency = flag.Int("concurrency", 4, "max concurrent solves")
		queue       = flag.Int("queue", 64, "max queued requests before shedding with 429")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown deadline for in-flight solves after SIGTERM/SIGINT")
		storeDir    = flag.String("store", "", "telemetry store directory (enables /v1/query and persist=<run>); empty = off")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
		fleetList   = flag.String("fleet", "", "comma-separated replica addresses; run as a fleet router instead of a solver")
		hedge       = flag.Duration("hedge", 200*time.Millisecond, "fleet mode: delay before hedging idempotent solves (negative = off)")
		probeEvery  = flag.Duration("probe", time.Second, "fleet mode: health-probe interval")
	)
	flag.Parse()

	if *fleetList != "" {
		if err := runFleet(*addr, *fleetList, *hedge, *probeEvery, *drain); err != nil {
			fmt.Fprintln(os.Stderr, "thermsvc:", err)
			os.Exit(1)
		}
		return
	}

	var store *tstore.Store
	if *storeDir != "" {
		st, err := tstore.Open(*storeDir, tstore.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermsvc: open store:", err)
			os.Exit(1)
		}
		store = st
		stats := st.Stats()
		log.Printf("thermsvc: telemetry store %s (%d series, %d rows recovered)",
			*storeDir, stats.Series, stats.Rows)
	}

	srv := service.New(service.Config{
		CacheCap:       *cacheCap,
		MaxConcurrent:  *concurrency,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		DrainTimeout:   *drain,
		Store:          store,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// Profiling stays opt-in and on its own listener: the debug surface
		// is never reachable through the service port, and binding it to
		// localhost (the sensible value) keeps it off the network entirely.
		// scripts/profile.sh drives this endpoint.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("thermsvc: pprof on %s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("thermsvc: pprof listener: %v", err)
			}
		}()
	}

	log.Printf("thermsvc: listening on %s (cache %d models, %d concurrent solves, queue %d)",
		*addr, *cacheCap, *concurrency, *queue)
	err := srv.Serve(ctx, *addr)
	if store != nil {
		// Close after Serve returns so in-flight persists have finished; Close
		// flushes every staged row into durable segments.
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermsvc:", err)
		os.Exit(1)
	}
	log.Print("thermsvc: shut down")
}

// readHeaderTimeout bounds how long the fleet router waits for a request's
// headers, as service.Server.Serve does for a replica.
const readHeaderTimeout = 10 * time.Second

// runFleet serves the routing front end: the full replica API proxied by
// model affinity with retries, hedging and failover. Shutdown mirrors the
// solver's graceful drain: stop accepting, give in-flight proxied requests
// the drain window, then stop the prober.
func runFleet(addr, replicaList string, hedge, probeEvery, drain time.Duration) error {
	replicas := strings.Split(replicaList, ",")
	rt, err := fleet.New(fleet.Config{
		Replicas:      replicas,
		ProbeInterval: probeEvery,
		HedgeDelay:    hedge,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("thermsvc: fleet router on %s over %d replicas (hedge %v, probe %v)",
		addr, len(replicas), hedge, probeEvery)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("thermsvc: draining fleet router")
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Print("thermsvc: shut down")
	return nil
}
