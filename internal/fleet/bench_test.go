package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/pctl"
)

// BenchmarkFleetRingOwner measures one bounded-load ring lookup — the pure
// routing overhead the router adds before any network work.
func BenchmarkFleetRingOwner(b *testing.B) {
	replicas := make([]string, 8)
	for i := range replicas {
		replicas[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
	}
	r := NewRing(replicas)
	keys := ringKeys(1024)
	all := func(string) bool { return true }
	load := func(string) int { return 4 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner, _ := r.OwnerBounded(keys[i%len(keys)], 1.25, all, load)
		if owner == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkFleetProxyOverhead measures a full proxied round trip against
// no-op backends: HTTP in, route-key derivation, upstream call, response
// copy. The backend does no solving, so the number is the router's wire
// overhead per request.
func BenchmarkFleetProxyOverhead(b *testing.B) {
	h, err := NewHarness(3, func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"ok":true}`))
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rt, err := New(Config{Replicas: h.Addrs(), ProbeInterval: time.Hour, HedgeDelay: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := front.Client()
	body := []byte(`{"model":{"floorplan":"grid:3x3"},"power":{"c0_0":10}}`)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(front.URL+"/v1/steady", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := resp.Body.Read(make([]byte, 64)); err != nil && err.Error() != "EOF" {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkFleetFailoverWindow measures request latency while the primary
// owner is dead: the first requests pay the transport-error + failover
// price, then the breaker ejects the corpse and requests go straight to the
// successor. Reports the p99 of the observed window as failover-p99-ns.
func BenchmarkFleetFailoverWindow(b *testing.B) {
	h, err := NewHarness(2, func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"ok":true}`))
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rt, err := New(Config{
		Replicas:      h.Addrs(),
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Hour},
		Retry:         RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
		HedgeDelay:    -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := front.Client()
	body := []byte(`{"model":{"floorplan":"grid:3x3"},"power":{"c0_0":10}}`)

	// Kill the steady request's ring owner so every early request fails over.
	key, _ := route(httptest.NewRequest("POST", "/v1/steady", nil), body)
	for i, addr := range h.Addrs() {
		if addr == rt.Ring().Owner(key) {
			h.Kill(i)
		}
	}

	lat := make([]float64, 0, b.N) // request latencies, ns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp, err := client.Post(front.URL+"/v1/steady", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds()))
	}
	b.StopTimer()
	if len(lat) > 0 {
		b.ReportMetric(pctl.Percentiles(lat, 99)[0], "failover-p99-ns")
	}
}
