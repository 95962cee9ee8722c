// Command leakserved runs the sweep service: an HTTP/JSON daemon that
// accepts declarative scenario files (the same schema as `leaksweep
// -scenario`), dedups their jobs against a persistent content-addressed
// result cache, runs the misses through one shared in-process worker pool,
// streams per-cell progress, and serves the completed runs' reports —
// byte-identical to the bytes `leaksweep` would print for the same
// scenario.
//
//	leakserved -addr :8080 -cache-dir /var/lib/leakserved
//
//	curl -X POST --data-binary @scenarios/paper.json localhost:8080/v1/runs
//	curl localhost:8080/v1/runs/r-000001/events     # NDJSON progress stream
//	curl localhost:8080/v1/runs/r-000001/report     # the leaksweep report
//
// The cache is keyed on (options digest, job key) and stamped with the
// golden behaviour anchor: resubmitting a scenario — same daemon or a fresh
// one over the same -cache-dir — reuses every cached job without
// simulating, and a simulator change (which re-records the anchor)
// invalidates every cached record at once.  SIGINT/SIGTERM shut down
// gracefully: in-flight jobs finish and are cached, the executing and queued
// runs are marked canceled (open /events streams end on that event), and
// the store is synced.
//
// -pprof mounts the standard net/http/pprof handlers under /debug/pprof/ on
// the same listener, for profiling a live daemon:
//
//	go tool pprof 'localhost:8080/debug/pprof/profile?seconds=10'
//
// It is off by default; without it /debug/pprof/ is 404.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cmpleak"
	"cmpleak/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory (empty = no cache)")
		cacheMaxMB = flag.Int("cache-max-mb", 0, "cache size budget in MB; LRU records are evicted beyond it (0 = unbounded)")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers in the shared pool")
		queue      = flag.Int("queue", 8, "maximum queued runs behind the executing one")
		withPprof  = flag.Bool("pprof", false, "serve the net/http/pprof profiling handlers under /debug/pprof/")
	)
	flag.Parse()

	if err := validateFlags(*addr, *jobs, *queue, *cacheMaxMB); err != nil {
		fmt.Fprintf(os.Stderr, "leakserved: %v\n", err)
		os.Exit(2)
	}

	var store *cmpleak.ResultCache
	if *cacheDir != "" {
		var err error
		store, err = cmpleak.OpenResultCache(*cacheDir, cmpleak.ResultCacheOptions{
			MaxBytes: int64(*cacheMaxMB) << 20,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakserved: opening cache: %v\n", err)
			os.Exit(1)
		}
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "leakserved: cache %s: %d cached job(s), %d byte(s) live (anchor %.8s)\n",
			*cacheDir, st.Entries, st.LiveBytes, cmpleak.GoldenAnchor)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leakserved: %v\n", err)
		os.Exit(1)
	}
	svc := service.New(service.Config{Workers: *jobs, QueueDepth: *queue, Store: store})
	fmt.Fprintf(os.Stderr, "leakserved: listening on %s (%d worker(s), queue depth %d)\n",
		ln.Addr(), *jobs, *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal kills the process the usual way
	if err := serve(ctx, ln, svc, handler(svc, *withPprof), os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "leakserved: %v\n", err)
		os.Exit(1)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "leakserved: closing cache: %v\n", err)
			os.Exit(1)
		}
	}
}

// handler is svc's HTTP handler, with the net/http/pprof handlers mounted
// beside it under /debug/pprof/ when withPprof is set.
func handler(svc *service.Server, withPprof bool) http.Handler {
	if !withPprof {
		return svc.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// shutdownTimeout bounds how long shutdown waits for open connections.
const shutdownTimeout = 30 * time.Second

// serve serves h, which fronts svc, on ln until ctx is done, then shuts
// down: the service is closed as HTTP shutdown begins, which cancels the
// executing run (its in-flight jobs finish and are written through to the
// cache) and every queued one, so each open /events stream ends on its
// run's canceled event instead of holding shutdown open.  serve returns once the connections
// are closed and the service has drained; it reports shutdown problems to
// logw and returns an error only when serving itself fails.
func serve(ctx context.Context, ln net.Listener, svc *service.Server, h http.Handler, logw io.Writer) error {
	httpSrv := &http.Server{Handler: h}
	closed := make(chan error, 1)
	httpSrv.RegisterOnShutdown(func() { closed <- svc.Close() })

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		// Serve only returns early on failure (accept error etc.).
		if cerr := svc.Close(); cerr != nil {
			fmt.Fprintf(logw, "leakserved: service shutdown: %v\n", cerr)
		}
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(logw, "leakserved: shutting down (in-flight jobs finish and are cached)")
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(logw, "leakserved: http shutdown: %v\n", err)
	}
	if err := <-closed; err != nil {
		fmt.Fprintf(logw, "leakserved: service shutdown: %v\n", err)
	}
	return nil
}

// validateFlags rejects unusable flag combinations before anything starts.
func validateFlags(addr string, jobs, queue, cacheMaxMB int) error {
	if addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if jobs <= 0 {
		return fmt.Errorf("-jobs must be >= 1, got %d", jobs)
	}
	if queue <= 0 {
		return fmt.Errorf("-queue must be >= 1, got %d", queue)
	}
	if cacheMaxMB < 0 {
		return fmt.Errorf("-cache-max-mb must be >= 0, got %d", cacheMaxMB)
	}
	return nil
}
