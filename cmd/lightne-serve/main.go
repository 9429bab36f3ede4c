// Command lightne-serve answers top-k nearest-neighbor and vector-lookup
// queries over an embedding artifact produced by cmd/lightne, exposing a
// JSON API:
//
//	GET  /healthz                       liveness + snapshot info (ok/degraded/loading)
//	GET  /readyz                        readiness: 200 once a snapshot is loaded, 503 before
//	GET  /metrics                       request counters, latency p50/p95/p99, replica lag
//	GET  /v1/neighbors?vertex=V&k=K     top-k cosine neighbors of V
//	POST /v1/neighbors                  {"vertex": V, "k": K}
//	POST /v1/batch                      {"queries": [{"vertex": V, "k": K}, ...]}
//	GET  /v1/embedding/V                V's embedding vector
//	GET  /v1/snapshot                   current snapshot as a CRC-trailed checkpoint stream
//	GET  /v1/snapshot/meta              generation/ETag of the shipped snapshot (JSON)
//
// Typical session:
//
//	lightne -input graph.txt -output emb.bin -binary -dim 128
//	lightne-serve -artifact emb.bin -checkpoint emb.ckpt -addr :7475 &
//	curl 'localhost:7475/v1/neighbors?vertex=42&k=10'
//
// The artifact may be the versioned binary format (fastest) or text rows;
// both are auto-detected. -precision int8 serves from 8x-smaller quantized
// codes. The loaded snapshot is hot-swappable: SIGHUP (or -watch) reloads
// the artifact and publishes it atomically with zero query downtime.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// Replication: every artifact-serving instance is a leader — each published
// generation is also encoded once as a checkpoint payload and offered on
// /v1/snapshot (+ /v1/snapshot/meta for cheap polling). A follower runs
// with -follow instead of -artifact:
//
//	lightne-serve -follow http://leader:7475 -checkpoint replica.ckpt -addr :7476
//
// and tails the leader: it polls the meta endpoint, downloads new
// generations (capped exponential backoff + jitter on failure, per-request
// deadlines), CRC- and shape-validates each payload before atomically
// hot-swapping it live, and rebuilds its ANN index locally (so replicas
// may run different -nlist/-nprobe than their leader). A follower with
// -checkpoint persists each applied payload for warm restarts, and
// re-ships applied snapshots on its own /v1/snapshot so followers can be
// chained. When the leader stays unreachable past -stale-after the
// follower keeps serving its last good snapshot and reports "degraded
// (stale)" on /healthz with lag metrics on /metrics; /readyz stays 503
// until the first snapshot (warm restart or first ship) so load balancers
// never route to an empty replica.
//
// -ann builds an IVF index (internal/ann) for each published snapshot, so
// neighbor queries probe -nprobe of -nlist posting lists instead of
// scanning every vertex; the index is constructed before the publish and
// swapped in the same atomic pointer store as its embedding, on the cold
// start, the checkpoint warm restart, every hot-swap reload, and every
// replicated generation alike. Snapshots smaller than -ann-min-rows keep
// the exact scan (it is already microseconds at that size).
//
// Failure hardening: -checkpoint persists each served snapshot to a
// crash-safe CRC-checked file (temp + fsync + atomic rename). On restart
// the checkpoint warm-starts the server even when the artifact (or leader)
// is missing or corrupt; a checkpoint torn by a kill mid-write fails its
// CRC check and the server falls back to a cold start. -max-inflight
// sheds excess concurrent queries with 503 + Retry-After (health,
// readiness, metrics, and snapshot-shipping endpoints are never shed), and
// -request-timeout attaches a deadline to each query's context; handler
// panics answer 500 and increment lightne_panics_total instead of dropping
// the connection.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lightne"
	"lightne/internal/ann"
	"lightne/internal/serve"
)

func main() {
	var (
		artifact    = flag.String("artifact", "", "embedding artifact from cmd/lightne, binary or text (leader mode; mutually exclusive with -follow)")
		follow      = flag.String("follow", "", "leader base URL, e.g. http://10.0.0.1:7475 (follower mode: tail the leader's published snapshots)")
		addr        = flag.String("addr", ":7475", "listen address")
		precision   = flag.String("precision", "float32", "index precision: float32 (2x smaller than training output) or int8 (8x)")
		watch       = flag.Duration("watch", 0, "poll the artifact at this interval and hot-swap on change (0 = SIGHUP only; leader mode)")
		checkpoint  = flag.String("checkpoint", "", "crash-safe snapshot checkpoint path: written after each publish (or applied replica generation), loaded (CRC-checked) for warm restart")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing queries before shedding with 503 (0 = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request context deadline (0 = none)")
		annOn       = flag.Bool("ann", false, "build an IVF index per published snapshot for sub-linear queries (snapshots under -ann-min-rows keep the exact scan)")
		nlist       = flag.Int("nlist", 0, "IVF posting-list count (0 = sqrt of the vertex count)")
		nprobe      = flag.Int("nprobe", 0, "IVF lists probed per query; higher = better recall, slower (0 = nlist/16)")
		annMinRows  = flag.Int("ann-min-rows", 0, "smallest snapshot that gets an IVF index (0 = default 4096); smaller ones serve exact scans")
		pollEvery   = flag.Duration("replica-poll", serve.DefaultReplicaPoll, "follower: leader meta poll interval")
		backoffMax  = flag.Duration("replica-backoff-max", serve.DefaultReplicaBackoffMax, "follower: cap for the exponential failure backoff")
		fetchTO     = flag.Duration("replica-fetch-timeout", serve.DefaultFetchTimeout, "follower: per-request deadline for meta polls and snapshot downloads")
		staleAfter  = flag.Duration("stale-after", serve.DefaultStaleAfter, "follower: report degraded (stale) on /healthz after this long without leader contact")
	)
	flag.Parse()
	annCfg := ann.Config{Enabled: *annOn, NList: *nlist, NProbe: *nprobe, MinRows: *annMinRows}
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("lightne-serve: ")
	switch {
	case *artifact == "" && *follow == "":
		fmt.Fprintln(os.Stderr, "lightne-serve: one of -artifact (leader) or -follow (follower) is required")
		flag.Usage()
		os.Exit(2)
	case *artifact != "" && *follow != "":
		fmt.Fprintln(os.Stderr, "lightne-serve: -artifact and -follow are mutually exclusive (a process is a leader or a follower, not both)")
		os.Exit(2)
	}

	store := serve.NewStore()
	shipper := serve.NewShipper()
	pub := &publisher{
		store:      store,
		shipper:    shipper,
		annCfg:     annCfg,
		precision:  *precision,
		checkpoint: *checkpoint,
	}

	// Warm restart (both modes): a CRC-valid checkpoint serves immediately,
	// before (and independent of) the artifact load or the first leader
	// contact. Corruption — including a file torn by a crash mid-write —
	// fails the checksum and falls through to the cold path.
	warm := false
	if *checkpoint != "" {
		t := time.Now()
		if x, err := lightne.ReadCheckpoint(*checkpoint); err == nil {
			if _, ph, pubErr := pub.publish(x, false, time.Since(t)); pubErr == nil {
				warm = true
				log.Printf("warm restart from checkpoint %s: %d vertices x %d dims; %v", *checkpoint, x.Rows, x.Cols, ph)
			} else {
				log.Printf("checkpoint index build failed, cold starting: %v", pubErr)
			}
		} else if !os.IsNotExist(err) {
			log.Printf("checkpoint unusable, cold starting: %v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := []serve.Option{serve.WithLimits(serve.Limits{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
	}), serve.WithShipper(shipper)}

	if *follow != "" {
		rep, err := serve.NewReplicator(store, serve.ReplicaConfig{
			Leader:       *follow,
			Poll:         *pollEvery,
			BackoffMax:   *backoffMax,
			FetchTimeout: *fetchTO,
			StaleAfter:   *staleAfter,
			ANN:          annCfg,
			Logf:         log.Printf,
			Decode: func(r io.Reader, size int64) (serve.Index, error) {
				x, err := lightne.ReadCheckpointFrom(r, size)
				if err != nil {
					return nil, err
				}
				return serve.NewIndex(x, *precision)
			},
			// Each applied generation becomes this follower's warm-restart
			// checkpoint and is re-shipped on its own /v1/snapshot, so
			// followers chain into trees without extra configuration.
			OnApply: func(gen uint64, payload []byte, rows, dims int) {
				shipper.Publish(serve.NewShipment(payload, gen, rows, dims))
				if *checkpoint == "" {
					return
				}
				if err := lightne.WriteCheckpointBytes(*checkpoint, payload, nil); err != nil {
					log.Printf("checkpoint write failed: %v", err)
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := rep.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("replication loop exited: %v", err)
			}
		}()
		log.Printf("following %s (poll %s, stale after %s)", *follow, *pollEvery, *staleAfter)
		opts = append(opts, serve.WithReplicator(rep))
	} else {
		// Leader mode: load the artifact. With a warm snapshot already
		// published, an artifact failure only means serving the
		// checkpointed generation.
		mtime, ph, err := publishArtifact(pub, *artifact)
		switch {
		case err == nil:
			snap := store.Snapshot()
			log.Printf("loaded %s: %d vertices x %d dims, %s index (%.1f MB); %v",
				*artifact, snap.Index.Rows(), snap.Index.Dims(), *precision,
				float64(snap.Index.MemoryBytes())/1e6, ph)
		case warm:
			log.Printf("artifact load failed, serving checkpoint snapshot: %v", err)
		default:
			log.Fatal(err)
		}

		// Hot-swap: SIGHUP reloads immediately; -watch polls the file's mtime.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			var tick <-chan time.Time
			if *watch > 0 {
				t := time.NewTicker(*watch)
				defer t.Stop()
				tick = t.C
			}
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
				case <-tick:
					st, err := os.Stat(*artifact)
					if err != nil || !st.ModTime().After(mtime) {
						continue
					}
				}
				m, ph, err := publishArtifact(pub, *artifact)
				if err != nil {
					log.Printf("reload failed, keeping current snapshot: %v", err)
					continue
				}
				mtime = m
				s := store.Snapshot()
				log.Printf("hot-swapped snapshot v%d: %d vertices x %d dims; %v",
					s.Version, s.Index.Rows(), s.Index.Dims(), ph)
			}
		}()
	}

	srv := serve.New(store, opts...)
	log.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}

// publisher owns everything that happens when a new embedding generation
// goes live on a leader: quantize to the serving index, build the IVF
// index, atomically publish, encode the checkpoint payload once, offer it
// to followers, and persist it as the warm-restart checkpoint — the
// encoded bytes are shared between shipping and checkpointing, so the
// artifact is read exactly once per generation.
type publisher struct {
	store      *serve.Store
	shipper    *serve.Shipper
	annCfg     ann.Config
	precision  string
	checkpoint string
}

// phases is how long one publish spent in each step before the snapshot
// could serve, logged so a slow start is attributed without re-instrumenting.
type phases struct{ read, quantize, ivf, encode time.Duration }

func (ph phases) String() string {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	return fmt.Sprintf("read %.1f ms, quantize %.1f ms, IVF build %.1f ms, checkpoint encode %.1f ms",
		ms(ph.read), ms(ph.quantize), ms(ph.ivf), ms(ph.encode))
}

// publish makes x, which took read to load, the live generation and reports
// its phase times. rewriteCheckpoint gates the checkpoint write (false on
// the warm-restart path, where the checkpoint file is the source and
// rewriting it would be a no-op with extra fsyncs).
// A failed index build fails the publish; a failed ANN build, encode,
// ship, or checkpoint write degrades (logged) rather than blocking — a
// served snapshot always beats a perfectly persisted one that never lands.
func (p *publisher) publish(x *lightne.Matrix, rewriteCheckpoint bool, read time.Duration) (*serve.Snapshot, phases, error) {
	ph := phases{read: read}
	t := time.Now()
	ix, err := serve.NewIndex(x, p.precision)
	if err != nil {
		return nil, ph, err
	}
	ph.quantize, t = time.Since(t), time.Now()
	ivf, err := serve.BuildANN(ix, p.annCfg)
	if err != nil {
		log.Printf("ANN index build failed, serving exact scans: %v", err)
		ivf = nil
	}
	ph.ivf = time.Since(t)
	snap := p.store.PublishWithANN(ix, ivf, 0)
	if ivf != nil {
		st := ivf.Stats()
		log.Printf("IVF index: %d lists (probe %d), %d empty, %.1f MB",
			st.NList, st.NProbe, st.EmptyLists, float64(st.MemoryBytes)/1e6)
	}
	t = time.Now()
	payload, err := lightne.EncodeCheckpoint(x)
	ph.encode = time.Since(t)
	if err != nil {
		log.Printf("snapshot encode failed; generation %d will not ship or checkpoint: %v", snap.Version, err)
		return snap, ph, nil
	}
	p.shipper.Publish(serve.NewShipment(payload, snap.Version, x.Rows, x.Cols))
	if rewriteCheckpoint && p.checkpoint != "" {
		if err := lightne.WriteCheckpointBytes(p.checkpoint, payload, nil); err != nil {
			log.Printf("checkpoint write failed: %v", err)
		} else {
			log.Printf("checkpointed snapshot to %s", p.checkpoint)
		}
	}
	return snap, ph, nil
}

// publishArtifact loads the artifact and publishes it as the live (and
// shipped) generation, returning the file's mtime for change detection and
// the publish's phase times.
func publishArtifact(p *publisher, path string) (time.Time, phases, error) {
	t := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return time.Time{}, phases{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return time.Time{}, phases{}, err
	}
	x, err := lightne.ReadEmbedding(f)
	if err != nil {
		return time.Time{}, phases{}, fmt.Errorf("loading %s: %w", path, err)
	}
	_, ph, err := p.publish(x, true, time.Since(t))
	return st.ModTime(), ph, err
}
