package telemetry

// This file defines the pre-registered handle bundles the hot paths hold:
// SimMetrics for the per-cycle simulation loop and RunnerMetrics for the
// parallel experiment engine. Bundles are built per incrementer (one per
// Sim, one per batch) against a shared Registry; registration is
// get-or-create, so every bundle increments the same underlying metrics
// while keeping its own uncontended counter stripes.

import "fmt"

// Standard bucket layouts.
var (
	// ThermalStepBuckets covers the per-cycle thermal solve: hundreds of
	// nanoseconds to pathological milliseconds.
	ThermalStepBuckets = []float64{250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 50e-6, 250e-6, 1e-3}
	// RunSecondsBuckets covers one simulation's wall time: sub-second
	// smoke runs to multi-minute full-fidelity runs.
	RunSecondsBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
	// AdmissionWaitBuckets covers the time a request spends queued for an
	// execution slot: instant grants to the configured queue-wait bound.
	AdmissionWaitBuckets = []float64{10e-6, 100e-6, 1e-3, 5e-3, 25e-3, 100e-3, 500e-3, 2.5}
	// RequestSecondsBuckets covers HTTP request latency end to end: fast
	// sheds and cache hits through full simulations.
	RequestSecondsBuckets = []float64{1e-3, 5e-3, 10e-3, 25e-3, 100e-3, 250e-3, 1, 2.5, 10, 30, 120}
)

// SimMetrics is the instrumentation bundle for one simulation: counter
// handles the sim flushes its hot-loop tallies into, gauges holding the
// live closed-loop state, and the sampled thermal-solver timing histogram.
type SimMetrics struct {
	// Hot-loop counters (flushed in batches by the sim, exact at Finish).
	Cycles          *CounterHandle
	Insts           *CounterHandle
	StallCycles     *CounterHandle
	EmergencyCycles *CounterHandle
	StressCycles    *CounterHandle

	// Controller-sample events.
	DTMSamples       *CounterHandle
	SaturatedSamples *CounterHandle
	WindupFreezes    *CounterHandle
	Escalations      *CounterHandle

	// Live closed-loop state (last writer wins across parallel runs).
	HotTemp    *Gauge
	Duty       *Gauge
	FreqFactor *Gauge

	// ThermalStep is the sampled wall time of one thermal-network step.
	ThermalStep *Histogram
}

// NewSimMetrics registers (or reuses) the simulation metric family on r and
// returns a fresh handle bundle for one run.
func NewSimMetrics(r *Registry) *SimMetrics {
	return &SimMetrics{
		Cycles:          r.Counter("sim_cycles_total", "Simulated clock cycles.").Handle(),
		Insts:           r.Counter("sim_insts_total", "Committed instructions.").Handle(),
		StallCycles:     r.Counter("sim_stall_cycles_total", "Trigger-mechanism and resync stall cycles.").Handle(),
		EmergencyCycles: r.Counter("sim_emergency_cycles_total", "Cycles with any block above the emergency threshold.").Handle(),
		StressCycles:    r.Counter("sim_stress_cycles_total", "Cycles with any block above the stress threshold.").Handle(),

		DTMSamples:       r.Counter("dtm_samples_total", "DTM controller sampling events.").Handle(),
		SaturatedSamples: r.Counter("dtm_saturated_samples_total", "Controller samples that hit an actuator bound.").Handle(),
		WindupFreezes:    r.Counter("dtm_antiwindup_freezes_total", "Controller samples whose integrator was frozen by anti-windup.").Handle(),
		Escalations:      r.Counter("dtm_escalations_total", "Hierarchy escalations to the backup mechanism.").Handle(),

		HotTemp:    r.Gauge("sim_hottest_temp_celsius", "Hottest block temperature of the most recent flush."),
		Duty:       r.Gauge("sim_fetch_duty", "Applied fetch duty of the most recent flush."),
		FreqFactor: r.Gauge("sim_freq_factor", "Clock ratio of the most recent flush (1 = full speed)."),

		ThermalStep: r.Histogram("sim_thermal_step_seconds", "Sampled wall time of one thermal-network step.", ThermalStepBuckets),
	}
}

// CacheMetrics is the run cache's bundle: lookup outcomes, the volume of
// stored result payloads, disk retry/failure counts, the pack store's
// volume count and its CRC-audit quarantines.
type CacheMetrics struct {
	Hits        *Counter
	Misses      *Counter
	Stores      *Counter
	Bytes       *Counter
	DiskRetries *Counter
	DiskErrors  *Counter

	// Pack store: volumes on disk, and needles quarantined as misses
	// after a CRC mismatch.
	PackVolumes       *Gauge
	PackAuditFailures *Counter
}

// NewCacheMetrics registers (or reuses) the run-cache metric family on r.
func NewCacheMetrics(r *Registry) *CacheMetrics {
	return &CacheMetrics{
		Hits:        r.Counter("cache_hits_total", "Run-cache lookups served from cache."),
		Misses:      r.Counter("cache_misses_total", "Run-cache lookups that required a simulation (including corrupted entries)."),
		Stores:      r.Counter("cache_stores_total", "Results stored into the run cache."),
		Bytes:       r.Counter("cache_stored_bytes_total", "Encoded bytes stored into the run cache."),
		DiskRetries: r.Counter("cache_disk_retries_total", "Disk cache operations retried after a transient I/O failure."),
		DiskErrors:  r.Counter("cache_disk_errors_total", "Disk cache operations abandoned after exhausting retries."),

		PackVolumes:       r.Gauge("cache_pack_volumes", "Pack volumes currently in the result store."),
		PackAuditFailures: r.Counter("cache_pack_audit_failures_total", "Needles quarantined as misses after a CRC mismatch."),
	}
}

// ServingMetrics is the HTTP serving layer's bundle: admission-control
// outcomes (admitted vs shed, with the shed reason split out), response
// classes, live in-flight and queue-depth gauges, and the admission-wait
// and end-to-end request latency histograms.
type ServingMetrics struct {
	// Admission outcomes.
	Admitted        *Counter
	ShedQueueFull   *Counter
	ShedWaitTimeout *Counter

	// Response classes (2xx / 4xx / 5xx, with client disconnects — the
	// nginx-style 499 — counted separately from real server errors).
	ResponsesOK          *Counter
	ResponsesClientError *Counter
	ResponsesServerError *Counter
	ResponsesClientGone  *Counter

	// Live serving state.
	InFlight   *Gauge
	QueueDepth *Gauge

	// AdmissionWait is the time a request waited for an execution slot
	// (admitted requests only). RequestSeconds is end-to-end handler
	// latency including sheds.
	AdmissionWait  *Histogram
	RequestSeconds *Histogram
}

// NewServingMetrics registers (or reuses) the serving metric family on r.
func NewServingMetrics(r *Registry) *ServingMetrics {
	return &ServingMetrics{
		Admitted:        r.Counter("serve_admitted_total", "Requests granted a simulation slot."),
		ShedQueueFull:   r.Counter("serve_shed_queue_full_total", "Requests shed because the admission queue was full."),
		ShedWaitTimeout: r.Counter("serve_shed_wait_timeout_total", "Requests shed after waiting the full queue-wait bound."),

		ResponsesOK:          r.Counter("serve_responses_2xx_total", "Requests answered with a 2xx status."),
		ResponsesClientError: r.Counter("serve_responses_4xx_total", "Requests answered with a 4xx status (including 429 sheds)."),
		ResponsesServerError: r.Counter("serve_responses_5xx_total", "Requests answered with a 5xx status."),
		ResponsesClientGone:  r.Counter("serve_responses_client_gone_total", "Requests abandoned by the client before completion (499)."),

		InFlight:   r.Gauge("serve_inflight_runs", "Simulations currently holding an admission slot."),
		QueueDepth: r.Gauge("serve_admission_queue_depth", "Requests waiting for an admission slot."),

		AdmissionWait:  r.Histogram("serve_admission_wait_seconds", "Time admitted requests waited for a slot.", AdmissionWaitBuckets),
		RequestSeconds: r.Histogram("serve_request_seconds", "End-to-end handler latency, sheds included.", RequestSecondsBuckets),
	}
}

// ClusterMetrics is the coordinator's bundle: fleet-wide dispatch
// outcomes (with the cache-affinity routing hit ratio split into hit and
// miss counters), hedging and requeue activity, the healthy-worker gauge,
// the dispatch-latency histogram, and one ClusterWorkerMetrics set per
// fleet member. Everything on the dispatch path is a pre-registered
// handle: the routing decision and per-dispatch bookkeeping stay
// allocation-free per the repository gate.
type ClusterMetrics struct {
	// Dispatch outcomes. Dispatched counts every attempt handed to a
	// worker; Retried counts re-dispatches after a transport/5xx/429
	// failure; Requeued counts the subset of retries that moved a run to a
	// different worker than the failed attempt (a downed worker's
	// outstanding runs landing on survivors).
	Dispatched *Counter
	Retried    *Counter
	Requeued   *Counter

	// Hedging. Hedges counts speculative duplicate requests fired at a
	// second worker after the hedge delay; HedgeWins counts the hedges
	// whose response arrived first (the primary was cancelled).
	Hedges    *Counter
	HedgeWins *Counter

	// Routing affinity: a hit is a dispatch that landed on the rendezvous
	// owner of its cache key (the worker whose disk cache holds any prior
	// identical run); a miss fell back to a least-loaded healthy worker.
	AffinityHits   *Counter
	AffinityMisses *Counter

	// WorkersUp is the current healthy-worker count.
	WorkersUp *Gauge

	// DispatchSeconds is one worker round trip (request to full body).
	DispatchSeconds *Histogram

	// Workers holds the per-fleet-member sets, indexed like the pool.
	Workers []*ClusterWorkerMetrics
}

// ClusterWorkerMetrics is one fleet member's dispatch accounting.
type ClusterWorkerMetrics struct {
	Dispatched *Counter
	Retried    *Counter
	Requeued   *Counter
	Hedged     *Counter
	Up         *Gauge
	InFlight   *Gauge
}

// NewClusterMetrics registers (or reuses) the cluster metric family on r
// for a fleet of n workers. Per-worker metrics are indexed by position in
// the worker list (cluster_worker_0_..., cluster_worker_1_...).
func NewClusterMetrics(r *Registry, n int) *ClusterMetrics {
	m := &ClusterMetrics{
		Dispatched: r.Counter("cluster_dispatched_total", "Run dispatches handed to a worker (every attempt)."),
		Retried:    r.Counter("cluster_retries_total", "Dispatches re-issued after a transport, 5xx or 429 failure."),
		Requeued:   r.Counter("cluster_requeued_total", "Retries that moved a run onto a different worker than the failed attempt."),

		Hedges:    r.Counter("cluster_hedges_total", "Speculative duplicate requests fired at a second worker."),
		HedgeWins: r.Counter("cluster_hedge_wins_total", "Hedged requests whose response won the race."),

		AffinityHits:   r.Counter("cluster_affinity_hits_total", "Dispatches routed to the rendezvous owner of their cache key."),
		AffinityMisses: r.Counter("cluster_affinity_misses_total", "Dispatches that fell back to a least-loaded healthy worker."),

		WorkersUp: r.Gauge("cluster_workers_up", "Workers currently considered healthy."),

		DispatchSeconds: r.Histogram("cluster_dispatch_seconds", "One worker round trip, request to full response body.", RequestSecondsBuckets),

		Workers: make([]*ClusterWorkerMetrics, n),
	}
	for i := range m.Workers {
		p := fmt.Sprintf("cluster_worker_%d_", i)
		m.Workers[i] = &ClusterWorkerMetrics{
			Dispatched: r.Counter(p+"dispatched_total", "Dispatches handed to this worker."),
			Retried:    r.Counter(p+"retried_total", "Failed dispatches on this worker that were retried."),
			Requeued:   r.Counter(p+"requeued_total", "Runs requeued onto this worker from a failed one."),
			Hedged:     r.Counter(p+"hedged_total", "Hedge requests fired at this worker."),
			Up:         r.Gauge(p+"up", "1 while this worker is considered healthy, else 0."),
			InFlight:   r.Gauge(p+"inflight", "Dispatches currently outstanding on this worker."),
		}
	}
	return m
}

// RunnerMetrics is the experiment engine's bundle: batch/run lifecycle
// counters, the live queue depth, and per-run wall time.
type RunnerMetrics struct {
	RunsStarted   *Counter
	RunsCompleted *Counter
	RunsFailed    *Counter
	QueueDepth    *Gauge
	RunSeconds    *Histogram
}

// NewRunnerMetrics registers (or reuses) the engine metric family on r.
func NewRunnerMetrics(r *Registry) *RunnerMetrics {
	return &RunnerMetrics{
		RunsStarted:   r.Counter("runner_runs_started_total", "Simulation jobs started."),
		RunsCompleted: r.Counter("runner_runs_completed_total", "Simulation jobs completed (including failures)."),
		RunsFailed:    r.Counter("runner_runs_failed_total", "Simulation jobs that returned an error, panicked or were skipped."),
		QueueDepth:    r.Gauge("runner_queue_depth", "Jobs not yet claimed by a worker."),
		RunSeconds:    r.Histogram("runner_run_seconds", "Per-job wall time.", RunSecondsBuckets),
	}
}

// IndexMetrics is the run catalog's bundle: ingest and query activity
// counters, recovery accounting (cold rebuilds and quarantined log
// frames), and the live record-count gauge. All handles are
// pre-registered so catalog hot paths stay allocation-free per the
// repository gate.
type IndexMetrics struct {
	Ingested    *Counter
	Duplicates  *Counter
	Queries     *Counter
	RangeScans  *Counter
	Rebuilds    *Counter
	Quarantined *Counter
	Records     *Gauge
}

// NewIndexMetrics registers (or reuses) the run-catalog metric family on r.
func NewIndexMetrics(r *Registry) *IndexMetrics {
	return &IndexMetrics{
		Ingested:    r.Counter("runindex_ingested_total", "Run records ingested into the catalog."),
		Duplicates:  r.Counter("runindex_duplicates_total", "Ingests skipped because the key was already cataloged."),
		Queries:     r.Counter("runindex_queries_total", "Catalog queries executed."),
		RangeScans:  r.Counter("runindex_range_scans_total", "Queries answered by a B+-tree range scan."),
		Rebuilds:    r.Counter("runindex_rebuilds_total", "Catalog opens that recovered results from the pack store."),
		Quarantined: r.Counter("runindex_quarantined_total", "Catalog log frames dropped as corrupt during replay."),
		Records:     r.Gauge("runindex_records", "Records currently held by the catalog."),
	}
}
