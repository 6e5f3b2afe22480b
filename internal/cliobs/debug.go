package cliobs

import (
	"expvar"
	"net/http"
	"net/http/pprof"

	"clockrlc/internal/obs"
)

// NewDebugMux builds the observability mux a long-lived process
// mounts: /debug/pprof/* (profiles), /debug/vars (expvar JSON
// including the "clockrlc" metrics registry) and /metrics (Prometheus
// text). Everything is served off a dedicated mux — never
// http.DefaultServeMux — so any number of servers can coexist in one
// process and each can be shut down independently. The -pprof
// listener and the rlcxd daemon both serve this mux.
func NewDebugMux() *http.ServeMux {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", obs.MetricsHandler())
	return mux
}
