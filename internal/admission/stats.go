package admission

// TenantStats is one tenant's /v1/stats block.
type TenantStats struct {
	// Admitted counts granted admissions (fast-path and queued).
	Admitted int64 `json:"admitted"`
	// ShedRate counts rejections from an empty token bucket.
	ShedRate int64 `json:"shed_rate,omitempty"`
	// ShedQueue counts rejections from queue bounds (global, per-tenant,
	// or drain eviction).
	ShedQueue int64 `json:"shed_queue,omitempty"`
	// Degraded counts solves served by the reduced-order backend under
	// pressure (RecordDegraded).
	Degraded int64 `json:"degraded,omitempty"`
	// InFlight and Queued are current gauges, exact under the controller
	// mutex.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// QueuedEvents counts admissions that waited in the queue at all;
	// QueueWaitP50MS/P99MS are percentiles over the most recent waits.
	QueuedEvents   int64   `json:"queued_events,omitempty"`
	QueueWaitP50MS float64 `json:"queue_wait_p50_ms,omitempty"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms,omitempty"`
	// MeanQueueWaitMS averages every wait ever recorded (not just the
	// window).
	MeanQueueWaitMS float64 `json:"mean_queue_wait_ms,omitempty"`
	// Weight echoes the effective fair-queuing weight.
	Weight float64 `json:"weight"`
}

// Snapshot is the controller's /v1/stats payload.
type Snapshot struct {
	Slots      int `json:"slots"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	Queued     int `json:"queued"`
	// Pressure is the current queue occupancy in [0, 1].
	Pressure float64 `json:"pressure"`
	Draining bool    `json:"draining,omitempty"`
	// Tenants holds one entry per tenant ever seen.
	Tenants map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the controller under its mutex: gauges are exact at the
// instant of the snapshot, counters are monotonic.
func (c *Controller) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		Slots:      c.cfg.Slots,
		QueueDepth: c.cfg.QueueDepth,
		InFlight:   c.inFlight,
		Queued:     len(c.queue),
		Draining:   c.draining,
		Tenants:    make(map[string]TenantStats, len(c.tenants)),
	}
	if c.cfg.QueueDepth > 0 {
		snap.Pressure = float64(len(c.queue)) / float64(c.cfg.QueueDepth)
	}
	for name, t := range c.tenants {
		ps := t.queueWaits.Percentiles(50, 99)
		ts := TenantStats{
			Admitted:       t.admitted,
			ShedRate:       t.shedRate,
			ShedQueue:      t.shedQueue,
			Degraded:       t.degraded,
			InFlight:       t.inFlight,
			Queued:         t.queued,
			QueuedEvents:   t.queuedEvents,
			QueueWaitP50MS: ps[0],
			QueueWaitP99MS: ps[1],
			Weight:         t.quota.weight(),
		}
		if t.queuedEvents > 0 {
			ts.MeanQueueWaitMS = float64(t.totalWaitNS) / float64(t.queuedEvents) / 1e6
		}
		snap.Tenants[name] = ts
	}
	return snap
}
