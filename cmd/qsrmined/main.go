// Command qsrmined is the long-running HTTP mining service: upload
// datasets (WKT-JSON scenes or transaction CSVs), mine them
// synchronously or as cancellable async jobs, and scrape live metrics.
// The API lives under /v1/; any other path answers 404 not_found.
//
// Usage:
//
//	qsrmined -addr :8080
//	qsrmined -addr :8080 -workers 4 -queue 128 -default-timeout 30s
//	qsrmined -addr :8080 -data-dir /var/lib/qsrmined   # durable node: survive restarts
//	qsrmined -addr :8090 -peers localhost:8081,localhost:8082   # front node: route, don't mine
//	qsrmined -dump-sample scene.json   # write the Porto Alegre sample scene and exit
//	qsrmined -version
//
// A quick session against a running daemon:
//
//	qsrmined -dump-sample scene.json
//	curl -s -X POST --data-binary @scene.json localhost:8080/v1/datasets/scene
//	curl -s -X POST -d '{"dataset":"<digest>","config":{"algorithm":"eclat-kc+","minSupport":0.3}}' localhost:8080/v1/mine
//	curl -s -X POST -d '{"dataset":"<digest>","config":{"distance":3,"minPI":0.3}}' localhost:8080/v1/colocate
//
// /v1/colocate mines spatial co-location patterns (prevalent
// feature-type sets under a neighborhood distance, measured by the
// participation index) instead of transaction itemsets; POST the same
// body to /v1/colocate/jobs for the cancellable async variant. Both
// share the dataset store, result cache, and persistence tier with
// /v1/mine.
//
// With -peers the process becomes a front node: it stores and mines
// nothing itself, but consistent-hashes each dataset digest onto the
// peer list, replicates uploads to -replicas peers, and fails over to
// the next ring candidate when a peer is down. Responses are forwarded
// byte-for-byte.
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, in-flight
// jobs finish (or are cancelled at the drain deadline), the listener
// closes cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/server/persist"
)

// errUsage marks command-line parse failures; the FlagSet has already
// printed the message and usage to stderr, so main only sets the
// conventional exit code 2.
var errUsage = errors.New("bad command line")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "qsrmined:", err)
		os.Exit(1)
	}
}

// drainable is what run needs from either role: mining node or front.
type drainable interface {
	Handler() http.Handler
	Shutdown(ctx context.Context) error
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qsrmined", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
		queueCap     = fs.Int("queue", 64, "async job queue capacity")
		storeEntries = fs.Int("store-max-entries", 64, "dataset store entry cap")
		storeBytes   = fs.Int64("store-max-bytes", 256<<20, "dataset store byte cap")
		cacheEntries = fs.Int("cache-max-entries", 256, "result cache entry cap")
		maxUpload    = fs.Int64("max-upload", 32<<20, "maximum request body bytes")
		defTimeout   = fs.Duration("default-timeout", 60*time.Second, "default per-request mining deadline")
		drainWait    = fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown drain deadline")
		dataDir      = fs.String("data-dir", "", "directory for durable state (datasets, results, job journal); empty = memory-only")
		peerList     = fs.String("peers", "", "comma-separated peer base URLs; non-empty makes this a routing front node")
		replicas     = fs.Int("replicas", 2, "dataset replicas per digest (front node)")
		accessLog    = fs.Bool("access-log", false, "log one line per request to stderr")
		dumpSample   = fs.String("dump-sample", "", "write the built-in Porto Alegre sample scene JSON to FILE (or - for stdout) and exit")
		version      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *version {
		fmt.Fprintln(stdout, "qsrmined", buildinfo.String())
		return nil
	}
	if *dumpSample != "" {
		return writeSample(*dumpSample, stdout)
	}

	var logw io.Writer
	if *accessLog {
		logw = stderr
	}

	var node drainable
	role := "node"
	if *peerList != "" {
		if *dataDir != "" {
			fmt.Fprintln(stderr, "qsrmined: -data-dir applies to mining nodes; a -peers front node stores nothing")
			fs.Usage()
			return errUsage
		}
		peers := splitPeers(*peerList)
		front, err := server.NewProxy(server.ProxyOptions{
			Peers:          peers,
			Replicas:       *replicas,
			MaxUploadBytes: *maxUpload,
			AccessLog:      logw,
		})
		if err != nil {
			return err
		}
		node = front
		role = fmt.Sprintf("front (%d peers, %d replicas)", len(peers), *replicas)
	} else {
		opts := server.Options{
			Workers:         *workers,
			QueueCap:        *queueCap,
			StoreMaxEntries: *storeEntries,
			StoreMaxBytes:   *storeBytes,
			CacheMaxEntries: *cacheEntries,
			MaxUploadBytes:  *maxUpload,
			DefaultTimeout:  *defTimeout,
			AccessLog:       logw,
		}
		if *dataDir != "" {
			dir, err := persist.Open(*dataDir)
			if err != nil {
				return fmt.Errorf("opening -data-dir: %w", err)
			}
			defer dir.Close()
			opts.Persistence = dir
			role = fmt.Sprintf("node (durable, data-dir %s)", *dataDir)
		}
		node = server.New(opts)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: node.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "qsrmined %s listening on %s as %s\n", buildinfo.Version, *addr, role)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // listener failed to start (port in use, ...)
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "qsrmined: draining (deadline %v)\n", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Order: flip to draining first so new submissions see 503 while the
	// listener is still up, then drain jobs, then close the listener
	// (which waits for in-flight HTTP handlers).
	jobsErr := node.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("closing listener: %w", err)
	}
	if jobsErr != nil {
		fmt.Fprintf(stderr, "qsrmined: drain deadline hit, remaining jobs cancelled (%v)\n", jobsErr)
	}
	fmt.Fprintln(stderr, "qsrmined: shut down cleanly")
	return nil
}

// splitPeers parses the -peers list, defaulting schemeless entries to
// http:// so "-peers host1:8081,host2:8081" just works.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		peers = append(peers, p)
	}
	return peers
}

// writeSample writes the built-in Porto Alegre scene as WKT-JSON, the
// exact format POST /v1/datasets/scene accepts.
func writeSample(path string, stdout io.Writer) error {
	scene := dataset.PortoAlegreScene()
	if path == "-" {
		return scene.WriteJSON(stdout)
	}
	return scene.SaveJSON(path)
}
