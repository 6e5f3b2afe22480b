package obs

import "net/http"

// MetricsHandler serves the default registry's live snapshot in
// Prometheus text exposition format — mount it at /metrics on any HTTP
// server. The snapshot is taken per request, so a scrape always sees
// current counter values.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error comes after the header is out: nothing to report.
		_ = DefaultRegistry().Snapshot().WriteText(w)
	})
}
