// Command pgfmu-server serves a pgFMU database over HTTP/JSON to
// concurrent remote clients: sessions, per-session transactions, prepared
// statements, streamed results, token auth, and graceful shutdown. See
// docs/server.md for the protocol and deployment notes.
//
//	$ pgfmu-server -addr :8080 -data /var/lib/pgfmu -token s3cret
//
// Flags:
//
//	-addr string            listen address (default ":8080")
//	-data string            durable database directory ("" = in-memory)
//	-token string           comma-separated bearer tokens; empty disables
//	                        auth (also PGFMU_AUTH_TOKEN)
//	-idle-timeout duration  idle-session reap horizon (default 5m)
//	-request-timeout duration  per-statement execution bound (default 30s)
//	-max-sessions int       concurrent session cap (default 1000)
//	-wal-sync-every int     group-commit: fsync every n commits (default 1)
//	-shutdown-grace duration  drain budget on SIGINT/SIGTERM (default 30s)
//	-version                print the version stamp and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pgfmu "repro"
	"repro/internal/buildinfo"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		data         = flag.String("data", "", "durable database directory (empty = in-memory)")
		token        = flag.String("token", os.Getenv("PGFMU_AUTH_TOKEN"), "comma-separated bearer tokens (empty disables auth)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "idle-session reap horizon")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-statement execution bound")
		maxSessions  = flag.Int("max-sessions", 1000, "concurrent session cap")
		walSyncEvery = flag.Int("wal-sync-every", 1, "group commit: fsync the WAL every n commits")
		grace        = flag.Duration("shutdown-grace", 30*time.Second, "drain budget for graceful shutdown")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("pgfmu-server", buildinfo.Version())
		return
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var opts []pgfmu.Option
	if *walSyncEvery > 1 {
		opts = append(opts, pgfmu.WithWALSyncEvery(*walSyncEvery))
	}
	db, err := pgfmu.Open(*data, opts...)
	if err != nil {
		log.Error("opening database", "path", *data, "err", err)
		os.Exit(1)
	}

	var tokens []string
	for _, t := range strings.Split(*token, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tokens = append(tokens, t)
		}
	}
	if len(tokens) == 0 {
		log.Warn("auth disabled: no -token / PGFMU_AUTH_TOKEN configured")
	}

	srv := server.New(db, server.Config{
		Addr:               *addr,
		AuthTokens:         tokens,
		SessionIdleTimeout: *idleTimeout,
		RequestTimeout:     *reqTimeout,
		MaxSessions:        *maxSessions,
		Logger:             log,
	})
	if _, err := srv.Listen(); err != nil {
		log.Error("listening", "addr", *addr, "err", err)
		os.Exit(1)
	}

	// Serve until a signal, then drain, roll back orphaned sessions,
	// checkpoint, and close the engine — the clean-shutdown sequence the
	// WAL makes optional but cheap.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("signal received, shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Error("shutdown", "err", err)
		}
		<-errc
	case err := <-errc:
		if err != nil {
			log.Error("serve", "err", err)
			db.Close()
			os.Exit(1)
		}
	}
	if err := db.Close(); err != nil {
		log.Error("closing database", "err", err)
		os.Exit(1)
	}
}
