package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lightne/internal/rng"
)

// Closed-loop load generator: each worker is a synchronous client issuing
// the next query as soon as the previous response lands, the standard way
// to measure a server's latency/throughput curve without coordinated
// omission from an open-loop arrival process.

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// Workers is the number of concurrent closed-loop clients (default 4).
	Workers int
	// Requests is the total request budget across workers (default 1000).
	Requests int
	// Vertices is the vertex ID space queries draw from uniformly
	// (required, > 0).
	Vertices int
	// K is the neighbor count per query (default DefaultK).
	K int
	// Seed makes the query stream reproducible.
	Seed uint64
	// Timeout bounds each individual request (default 30s; negative
	// disables). The old hard-coded 30s made short-deadline runs against a
	// stalled server impossible to bound.
	Timeout time.Duration
	// ConnectRetries is how many times a connection-refused failure retries
	// (brief backoff between attempts) before counting as an error. Covers
	// racing a server that has not finished binding its listener — the
	// normal state when a load run starts alongside the server under test.
	// Default 3; negative disables.
	ConnectRetries int
}

// LoadReport summarizes a load run.
type LoadReport struct {
	Requests int
	Errors   int // non-200 responses and transport failures
	Elapsed  time.Duration
	QPS      float64
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
}

func (r LoadReport) String() string {
	return fmt.Sprintf("%d requests (%d errors) in %v: %.0f qps, p50 %v, p95 %v, p99 %v, max %v",
		r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond), r.QPS,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
}

// RunLoad drives baseURL's /v1/neighbors endpoint until the request budget
// is spent or ctx is canceled, and reports exact (sample-based, not
// bucketed) latency percentiles.
func RunLoad(ctx context.Context, baseURL string, cfg LoadConfig) (LoadReport, error) {
	if cfg.Vertices <= 0 {
		return LoadReport{}, fmt.Errorf("serve: LoadConfig.Vertices must be positive")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	requests := cfg.Requests
	if requests <= 0 {
		requests = 1000
	}
	k := cfg.K
	if k <= 0 {
		k = DefaultK
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	} else if timeout < 0 {
		timeout = 0
	}
	connRetries := cfg.ConnectRetries
	if connRetries == 0 {
		connRetries = 3
	} else if connRetries < 0 {
		connRetries = 0
	}
	client := &http.Client{Timeout: timeout}
	var remaining atomic.Int64
	remaining.Store(int64(requests))
	var issued, errs atomic.Int64
	latencies := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			src := rng.New(cfg.Seed, uint64(worker))
			local := make([]time.Duration, 0, requests/workers+1)
			for remaining.Add(-1) >= 0 && ctx.Err() == nil {
				v := src.Intn(cfg.Vertices)
				url := fmt.Sprintf("%s/v1/neighbors?vertex=%d&k=%d", baseURL, v, k)
				issued.Add(1)
				t0 := time.Now()
				resp, err := client.Get(url)
				for attempt := 0; err != nil && attempt < connRetries && errors.Is(err, syscall.ECONNREFUSED) && ctx.Err() == nil; attempt++ {
					time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
					resp, err = client.Get(url)
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				local = append(local, time.Since(t0))
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
				}
			}
			latencies[worker] = local
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep := LoadReport{
		Requests: int(issued.Load()),
		Errors:   int(errs.Load()),
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		rep.QPS = float64(len(all)) / elapsed.Seconds()
	}
	if len(all) > 0 {
		rep.P50 = percentile(all, 0.50)
		rep.P95 = percentile(all, 0.95)
		rep.P99 = percentile(all, 0.99)
		rep.Max = all[len(all)-1]
	}
	return rep, nil
}

// percentile reads the q-th percentile from sorted samples (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
