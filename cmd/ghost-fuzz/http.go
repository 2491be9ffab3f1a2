package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"ghostspec/internal/campaign"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// serveIntrospection starts the -http listener in the background,
// serving the live-introspection handler set:
//
//	/metrics       Prometheus text exposition of the telemetry registry
//	/debug/pprof/  the standard Go profiling endpoints
//	/spans         the tracer's recent spans, newest state of each lane
//	/campaign      live campaign status as JSON (execs/sec, corpus,
//	               coverage, per-worker health)
//
// The engine getter is called per request: the campaign may not have
// started yet (boot check) or may already be done when a poll arrives.
//
// The campaign outlives no one: the process exits when the run
// completes, taking the listener with it, so there is no
// graceful-shutdown dance.
func serveIntrospection(addr string, eng func() *campaign.Engine, tr *trace.Tracer) {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		telemetry.Snapshot().WritePrometheus(w)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if tr == nil {
			fmt.Fprintln(w, "(tracing not enabled)")
			return
		}
		spans := tr.Spans()
		const maxDump = 512
		if len(spans) > maxDump {
			fmt.Fprintf(w, "(%d spans recorded, newest %d shown; %d dropped at the rings)\n",
				len(spans), maxDump, tr.Dropped())
			spans = spans[len(spans)-maxDump:]
		}
		fmt.Fprint(w, trace.FormatSpans(spans, 0))
	})

	mux.HandleFunc("/campaign", func(w http.ResponseWriter, r *http.Request) {
		e := eng()
		if e == nil {
			http.Error(w, `{"error":"campaign not running"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(e.Status())
	})

	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Printf("ghost-fuzz: -http %s: %v\n", addr, err)
		}
	}()
}
