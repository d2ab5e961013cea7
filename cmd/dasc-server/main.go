// Command dasc-server runs the dependency-aware spatial-crowdsourcing
// platform as an HTTP service. Requesters POST tasks, workers POST
// themselves, and every -interval of logical time a batch process assigns
// the active workers to the pending tasks with the chosen allocator.
//
//	dasc-server -addr :8080 -alg G-G -interval 5 -timescale 1
//
// Logical time advances at -timescale units per wall-clock second; with
// -manual the clock only advances through explicit POST /v1/tick?t=<time>
// calls (useful for tests and demos).
//
// Durability: -journal appends every event to a JSONL log (fsynced per
// -fsync), -snapshot/-snapshot-every write atomic state snapshots that
// rotate the journal, and startup recovery is snapshot-load plus journal
// tail replay (a torn final line from a crash mid-append is truncated with
// a warning). SIGINT/SIGTERM drain in-flight requests via http.Server
// Shutdown and flush+close the journal on every exit path.
//
// API (see internal/server.Handler):
//
//	POST /v1/workers      {"x":..,"y":..,"start":..,"wait":..,"velocity":..,"max_dist":..,"skills":[..]}
//	POST /v1/tasks        {"x":..,"y":..,"start":..,"wait":..,"requires":..,"deps":[..],"weight":..}
//	POST /v1/tick?t=12.5  run one batch at logical time 12.5
//	POST /v1/snapshot     write a state snapshot now
//	GET  /v1/stats | /v1/assignments | /v1/instance | /v1/svg
//	GET  /v1/healthz | /v1/readyz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dasc/internal/core"
	"dasc/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dasc-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address (TCP host:port, or unix:/path for a Unix-domain socket)")
		alg         = flag.String("alg", core.NameGreedy, "allocator name")
		seed        = flag.Int64("seed", 1, "allocator seed")
		interval    = flag.Float64("interval", 5, "batch interval in logical time units")
		timescale   = flag.Float64("timescale", 1, "logical time units per wall-clock second")
		service     = flag.Float64("service", 0, "service duration per task")
		manual      = flag.Bool("manual", false, "no automatic ticker; advance time via POST /v1/tick")
		journal     = flag.String("journal", "", "append-only JSONL event log; replayed on startup to restore state")
		ingQueue    = flag.Int("ingest-queue", server.DefaultIngestQueue, "registrations that may wait for a group commit (429 beyond)")
		ingBatch    = flag.Int("ingest-batch", server.DefaultIngestBatch, "max registrations committed per group commit")
		ingWait     = flag.Duration("ingest-wait", 0, "group-commit formation window: a leader gathers registrations this long (or to -ingest-batch) before each commit; 0 commits whatever is pending")
		fsync       = flag.String("fsync", "interval", "journal durability: always, interval or never")
		fsyncEvery  = flag.Duration("fsync-interval", server.DefaultFsyncInterval, "fsync cadence for -fsync=interval")
		snapshot    = flag.String("snapshot", "", "state snapshot path (default <journal>.snap when -journal is set)")
		snapEvery   = flag.Int("snapshot-every", 0, "snapshot + rotate the journal every N ticks (0 = via POST /v1/snapshot only)")
		maxBody     = flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body cap in bytes (413 beyond)")
		readTO      = flag.Duration("read-timeout", 10*time.Second, "http.Server read timeout")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "http.Server write timeout")
		idleTO      = flag.Duration("idle-timeout", 2*time.Minute, "http.Server idle timeout")
		drainTO     = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain limit on SIGINT/SIGTERM")
		enablePprof = flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
		traceDepth  = flag.Int("trace-depth", 0, "per-batch traces kept for GET /v1/trace (0 = default)")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "structured log encoding: text or json")
		accessEvery = flag.Int("access-log-every", 100, "log every Nth HTTP request with its X-Request-ID (1 = all, 0 = no access log)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	alloc, err := core.NewByName(*alg, *seed)
	if err != nil {
		return err
	}
	mode, err := server.ParseFsyncMode(*fsync)
	if err != nil {
		return err
	}
	snapPath := *snapshot
	if snapPath == "" && *journal != "" {
		snapPath = *journal + ".snap"
	}
	cfg := server.Config{
		Allocator:      alloc,
		ServiceTime:    *service,
		TraceDepth:     *traceDepth,
		SnapshotPath:   snapPath,
		SnapshotEvery:  *snapEvery,
		MaxBodyBytes:   *maxBody,
		IngestQueue:    *ingQueue,
		IngestBatch:    *ingBatch,
		IngestWait:     *ingWait,
		Logger:         logger,
		AccessLogEvery: *accessEvery,
	}
	if *journal != "" {
		j, err := server.OpenJournalMode(*journal, mode, *fsyncEvery)
		if err != nil {
			return err
		}
		// Every exit path below returns through this defer, so the journal
		// is always flushed and closed (the old os.Exit paths skipped it).
		defer func() {
			if cerr := j.Close(); cerr != nil {
				logger.Error("journal close failed", "error", cerr.Error())
			}
		}()
		cfg.Journal = j
	}
	p, err := server.NewPlatform(cfg)
	if err != nil {
		return err
	}
	// Commit every admitted registration before the journal defer above
	// flushes and closes the file.
	defer p.Close()

	// Serve before recovering: /v1/healthz answers immediately, /v1/readyz
	// and the mutating endpoints gate on recovery finishing.
	p.SetReady(false)
	ln, err := listen(*addr)
	if err != nil {
		return err
	}
	handler := server.Handler(p)
	if *enablePprof {
		handler = withPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{
		Handler:      handler,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
	}
	// The address stays inside the message — scripts (and humans) find the
	// serving endpoint by grepping the log for "listening on <addr>".
	logger.Info(fmt.Sprintf("listening on %s", ln.Addr()),
		"alg", alloc.Name(), "interval", *interval, "fsync", mode.String())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *journal != "" || snapPath != "" {
		rep, err := server.Recover(p, snapPath, *journal)
		if err != nil {
			shutdown(srv, *drainTO)
			return fmt.Errorf("recover: %w", err)
		}
		server.LogRecovery(logger, rep, p.Snapshot())
	}
	p.SetReady(true)

	tickerStop := make(chan struct{})
	defer close(tickerStop)
	if !*manual {
		go runTicker(p, logger, *interval, *timescale, tickerStop)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		stop()
		drained := server.LogShutdown(logger, *drainTO)
		err := shutdown(srv, *drainTO)
		<-serveErr // Serve has returned ErrServerClosed
		drained(err)
		return nil
	}
}

// buildLogger constructs the process logger from the -log-level/-log-format
// flags; events go to stderr.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// listen opens the serving socket: "unix:/path" binds a Unix-domain socket
// (a stale socket file from a previous run is removed first; Go unlinks it
// again on listener close), anything else is a TCP address. Local reverse
// proxies and benchmark rigs use the unix form to skip the TCP loopback
// stack.
func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok && path != "" {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("remove stale socket %s: %w", path, err)
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// shutdown drains in-flight requests, bounded by the configured limit.
func shutdown(srv *http.Server, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	err := srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return srv.Close()
	}
	return err
}

// withPprof mounts the net/http/pprof handlers next to the API without
// going through http.DefaultServeMux (a blank import would profile every
// binary that links this package; the flag keeps it opt-in).
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runTicker advances logical time at the configured rate, running one batch
// per interval, until stop closes.
func runTicker(p *server.Platform, logger *slog.Logger, interval, timescale float64, stop <-chan struct{}) {
	if timescale <= 0 {
		timescale = 1
	}
	wall := time.Duration(float64(time.Second) * interval / timescale)
	if wall <= 0 {
		wall = time.Second
	}
	start := time.Now()
	t := time.NewTicker(wall)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tickOnce(p, logger, time.Since(start).Seconds()*timescale)
		}
	}
}

// tickOnce runs one batch at logical time now and logs non-empty outcomes.
func tickOnce(p *server.Platform, logger *slog.Logger, now float64) {
	out, err := p.Tick(now)
	if err != nil {
		logger.Error("tick failed", "t", now, "error", err.Error())
		return
	}
	if len(out.Assigned) > 0 || out.Wasted > 0 {
		logger.Info("batch complete",
			"batch", out.Batch, "t", out.Time, "workers", out.Workers,
			"tasks", out.Tasks, "assigned", len(out.Assigned), "wasted", out.Wasted)
	}
}
