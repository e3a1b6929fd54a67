// jm-serve is the multi-tenant simulation daemon: it hosts many
// independent J-Machine sessions behind the HTTP/JSON API of
// internal/serve, with checkpoint-backed persistence.
//
// Every session lives in its own subdirectory of -dir (spec.json +
// state.ckpt + optional observability streams). At most -max-resident
// sessions are held in memory; the rest are parked as checkpoints and
// restored transparently on their next request. On SIGINT/SIGTERM the
// daemon drains in-flight requests and checkpoints every resident
// session, so a restart with the same -dir recovers all of them — and
// because a checkpoint is also committed after every mutating request,
// even kill -9 loses nothing past the last completed request (the
// serve_smoke.sh script exercises exactly that).
//
// Usage:
//
//	jm-serve [-addr 127.0.0.1:8034] [-dir jm-serve-state] [-max-resident 8]
//
// See docs/SERVE.md for the API reference.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jmachine/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8034", "listen address")
	dir := flag.String("dir", "jm-serve-state", "session state directory (sessions found here are recovered)")
	maxResident := flag.Int("max-resident", serve.DefaultMaxResident,
		"sessions kept in memory; beyond this the least-recently-used is checkpointed to disk")
	flag.Parse()
	log.SetPrefix("jm-serve: ")
	log.SetFlags(0)

	g, err := serve.NewManager(*dir, *maxResident)
	if err != nil {
		log.Fatal(err)
	}
	if n := len(g.List()); n > 0 {
		log.Printf("recovered %d session(s) from %s", n, *dir)
	}

	// A client that never finishes its headers, or parks an idle
	// keep-alive connection, is cut off. There is no WriteTimeout: a
	// long simulation request or a timeline download is a slow write
	// by design, and request bodies are size-capped by the handler.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(g),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	drained := make(chan struct{})
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		log.Print("signal received: draining requests")
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Printf("drain: %v", err)
		}
		close(drained)
	}()

	log.Printf("listening on %s (state dir %s, max %d resident)", *addr, *dir, *maxResident)
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-drained
	// All handlers have returned: checkpoint every session and exit.
	if err := g.Shutdown(); err != nil {
		log.Fatalf("shutdown checkpoint: %v", err)
	}
	log.Printf("checkpointed %d session(s); bye", len(g.List()))
}
