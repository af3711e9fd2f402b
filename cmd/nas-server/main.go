// Command nas-server is the long-lived campaign service: a JSON HTTP API
// hosting many concurrent NAS search campaigns, each a walltime-chained
// sequence of allocations driven through the crash-consistent checkpoint
// machinery. Kill the process at any point — kill -9 included — and a
// restart over the same -store directory resumes every running campaign
// from its last persisted boundary, replaying to the same final log byte
// for byte as an uninterrupted nas-search run.
//
//	nas-server -addr :8080 -store nas-campaigns
//
//	curl -s localhost:8080/campaigns -d '{"bench":"Combo","strategy":"a2c",
//	    "agents":4,"workers":4,"horizon":3600,"walltime":900,"seed":42}'
//	curl -s localhost:8080/campaigns/c00000001
//	curl -s localhost:8080/campaigns/c00000001/log
//	curl -s localhost:8080/campaigns/c00000001/trace?since=0
//	curl -s -X POST localhost:8080/campaigns/c00000001/pause
//	curl -s localhost:8080/leaderboard
//
// On SIGINT/SIGTERM the server drains: it stops accepting submissions,
// lets every running campaign cut at its next walltime boundary (where its
// checkpoint is already persisted), flushes the store, and exits; the next
// start resumes the drained campaigns automatically.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nasgo/internal/campaign"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		store      = flag.String("store", "nas-campaigns", "campaign store directory (crash-consistent; reuse it across restarts)")
		reqTimeout = flag.Duration("req-timeout", 30*time.Second, "per-request timeout")
		drainWait  = flag.Duration("drain-timeout", 2*time.Minute, "graceful-drain budget on SIGINT/SIGTERM before forcing exit")
	)
	flag.Parse()

	mgr, quarantined, err := campaign.NewManager(*store, campaign.Options{Logf: log.Printf})
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range quarantined {
		log.Printf("store: quarantined unreadable campaign directory %s", id)
	}
	mgr.Start()

	srv := &http.Server{
		Addr: *addr,
		Handler: campaign.NewServer(mgr, campaign.ServerOptions{
			RequestTimeout: *reqTimeout,
		}).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("signal %v: draining (campaigns cut at their next walltime boundary)", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		done := make(chan struct{})
		go func() {
			mgr.Drain()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			log.Printf("drain timed out after %v; persisted state is still consistent", *drainWait)
		}
		_ = srv.Shutdown(ctx)
	}()

	<-mgr.Ready()
	log.Printf("nas-server ready on %s (store %s, %d campaigns loaded)",
		*addr, *store, len(mgr.List()))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	select {
	case <-mgr.Done():
		log.Printf("nas-server drained cleanly")
	case <-time.After(*drainWait):
		log.Printf("exiting with drain incomplete; persisted state is still consistent")
	}
}
