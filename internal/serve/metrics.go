package serve

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Observability for the serving path. All counters are lock-free atomics so
// instrumentation never serializes the request fan-in; the histogram uses
// power-of-two latency buckets (1µs, 2µs, 4µs, … ~9min), which keeps
// percentile error under 2x — plenty to tell a 100µs scan from a 10ms one.

const histBuckets = 30

// latencyHist is a fixed-bucket exponential histogram.
type latencyHist struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sumNs  atomic.Int64
}

// bucketOf maps a duration to its bucket: index i covers
// (2^(i-1), 2^i] microseconds, with 0 covering everything ≤ 1µs.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	b := bits.Len64(uint64(us - 1)) // ceil(log2(us))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper is the inclusive upper bound of bucket i, used as the
// reported percentile value.
func bucketUpper(i int) time.Duration {
	return time.Duration(int64(1)<<uint(i)) * time.Microsecond
}

func (h *latencyHist) observe(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	h.sumNs.Add(int64(d))
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile observation, or 0 when the histogram is empty.
func (h *latencyHist) quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// mean returns the average observed latency (exact, not bucketed).
func (h *latencyHist) mean() time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / total)
}

// endpointStats aggregates one endpoint's traffic.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64 // responses with status >= 400
	hist     latencyHist
}

func (e *endpointStats) observe(d time.Duration, status int) {
	e.requests.Add(1)
	if status >= 400 {
		e.errors.Add(1)
	}
	e.hist.observe(d)
}

// Metrics tracks per-endpoint request counters and latency distributions
// plus snapshot gauges, the middleware's panic/shed counters, and (when an
// ingester is attached) ingestion supervision counters. The endpoint set
// is fixed at construction, so the hot path never takes a map-write lock.
type Metrics struct {
	start     time.Time
	store     *Store
	endpoints map[string]*endpointStats
	panics    atomic.Int64
	shed      atomic.Int64
	ingest    func() IngestStatus  // nil unless an ingester is attached
	replica   func() ReplicaStatus // nil unless a replicator is attached

	// Search-path accounting: which path answered (IVF probe vs exact scan)
	// and how many row-distance computations it spent — the live view of
	// the recall/throughput trade the ANN index buys.
	annQueries   atomic.Int64
	exactQueries atomic.Int64
	scannedRows  atomic.Int64
}

// ObserveSearch records one answered top-k query: approx says the ANN
// probe produced the answer, scanned is its row-distance computation count.
func (m *Metrics) ObserveSearch(approx bool, scanned int) {
	if approx {
		m.annQueries.Add(1)
	} else {
		m.exactQueries.Add(1)
	}
	m.scannedRows.Add(int64(scanned))
}

// ANNQueries reports how many queries the ANN probe answered.
func (m *Metrics) ANNQueries() int64 { return m.annQueries.Load() }

// ScannedRows reports the total row-distance computations spent on queries.
func (m *Metrics) ScannedRows() int64 { return m.scannedRows.Load() }

// Panics reports how many handler panics the recovery middleware caught.
func (m *Metrics) Panics() int64 { return m.panics.Load() }

// Shed reports how many requests the concurrency limiter rejected.
func (m *Metrics) Shed() int64 { return m.shed.Load() }

// NewMetrics builds a metrics registry over the given endpoints, reading
// snapshot gauges from store.
func NewMetrics(store *Store, endpoints ...string) *Metrics {
	m := &Metrics{start: time.Now(), store: store, endpoints: make(map[string]*endpointStats, len(endpoints))}
	for _, ep := range endpoints {
		m.endpoints[ep] = &endpointStats{}
	}
	return m
}

// Observe records one request against the named endpoint. Unknown names
// are dropped (the endpoint set is fixed at construction).
func (m *Metrics) Observe(endpoint string, d time.Duration, status int) {
	if e, ok := m.endpoints[endpoint]; ok {
		e.observe(d, status)
	}
}

// WriteTo renders the metrics in the Prometheus text exposition format
// (counters, latency quantile gauges, and snapshot gauges).
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var n int64
	emit := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	names := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		names = append(names, ep)
	}
	sort.Strings(names)
	for _, ep := range names {
		e := m.endpoints[ep]
		if err := emit("lightne_requests_total{endpoint=%q} %d\n", ep, e.requests.Load()); err != nil {
			return n, err
		}
		if err := emit("lightne_request_errors_total{endpoint=%q} %d\n", ep, e.errors.Load()); err != nil {
			return n, err
		}
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
			if err := emit("lightne_request_latency_seconds{endpoint=%q,quantile=%q} %g\n",
				ep, q.label, e.hist.quantile(q.v).Seconds()); err != nil {
				return n, err
			}
		}
		if err := emit("lightne_request_latency_mean_seconds{endpoint=%q} %g\n", ep, e.hist.mean().Seconds()); err != nil {
			return n, err
		}
	}
	if snap := m.store.Snapshot(); snap != nil {
		if err := emit("lightne_snapshot_version %d\n", snap.Version); err != nil {
			return n, err
		}
		if err := emit("lightne_snapshot_staleness %g\n", snap.Staleness); err != nil {
			return n, err
		}
		if err := emit("lightne_snapshot_age_seconds %g\n", time.Since(snap.Published).Seconds()); err != nil {
			return n, err
		}
		if err := emit("lightne_snapshot_vertices %d\n", snap.Index.Rows()); err != nil {
			return n, err
		}
		if err := emit("lightne_snapshot_dims %d\n", snap.Index.Dims()); err != nil {
			return n, err
		}
		if err := emit("lightne_snapshot_bytes %d\n", snap.Index.MemoryBytes()); err != nil {
			return n, err
		}
		annOn := 0
		if snap.ANN != nil {
			annOn = 1
		}
		if err := emit("lightne_snapshot_ann %d\n", annOn); err != nil {
			return n, err
		}
		if snap.ANN != nil {
			st := snap.ANN.Stats()
			for _, g := range []struct {
				name string
				v    int64
			}{
				{"lightne_ann_nlist", int64(st.NList)},
				{"lightne_ann_nprobe", int64(st.NProbe)},
				{"lightne_ann_empty_lists", int64(st.EmptyLists)},
				{"lightne_ann_bytes", st.MemoryBytes},
			} {
				if err := emit("%s %d\n", g.name, g.v); err != nil {
					return n, err
				}
			}
		}
	}
	for _, g := range []struct {
		name string
		v    int64
	}{
		{"lightne_ann_queries_total", m.annQueries.Load()},
		{"lightne_exact_queries_total", m.exactQueries.Load()},
		{"lightne_scanned_rows_total", m.scannedRows.Load()},
	} {
		if err := emit("%s %d\n", g.name, g.v); err != nil {
			return n, err
		}
	}
	if err := emit("lightne_panics_total %d\n", m.panics.Load()); err != nil {
		return n, err
	}
	if err := emit("lightne_shed_total %d\n", m.shed.Load()); err != nil {
		return n, err
	}
	if m.ingest != nil {
		st := m.ingest()
		degraded := 0
		if st.State == "degraded" {
			degraded = 1
		}
		for _, g := range []struct {
			name string
			v    int64
		}{
			{"lightne_ingest_degraded", int64(degraded)},
			{"lightne_ingest_restarts_total", st.Restarts},
			{"lightne_ingest_retries_total", st.Retries},
			{"lightne_ingest_published_total", st.Published},
			{"lightne_ingest_batches_applied_total", st.BatchesApplied},
			{"lightne_ingest_batches_dropped_total", st.BatchesDropped},
		} {
			if err := emit("%s %d\n", g.name, g.v); err != nil {
				return n, err
			}
		}
	}
	if m.replica != nil {
		st := m.replica()
		degraded := 0
		if st.State == "degraded" {
			degraded = 1
		}
		if err := emit("lightne_replica_generation %d\n", st.Generation); err != nil {
			return n, err
		}
		if err := emit("lightne_replica_lag_seconds %g\n", st.LagSeconds); err != nil {
			return n, err
		}
		for _, g := range []struct {
			name string
			v    int64
		}{
			{"lightne_replica_fetch_failures_total", st.FetchFailures},
			{"lightne_replica_applied_total", st.Applied},
			{"lightne_replica_degraded", int64(degraded)},
		} {
			if err := emit("%s %d\n", g.name, g.v); err != nil {
				return n, err
			}
		}
	}
	err := emit("lightne_uptime_seconds %g\n", time.Since(m.start).Seconds())
	return n, err
}
