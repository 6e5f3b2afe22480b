// Package cliobs wires the obs instrumentation layer into the
// command-line tools: every cmd registers the same -trace, -metrics,
// -cpuprofile, -memprofile, -pprof and -check flags, starts a Session
// around its run, and closes it on exit. Keeping the plumbing here
// means a new tool gets the full observability surface in two lines.
package cliobs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/obs"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	Trace      string
	Metrics    bool
	CPUProfile string
	MemProfile string
	PprofAddr  string
	Check      string
}

// AddFlags registers the shared observability flags on fs and returns
// the value holder to pass to Start after parsing.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSON-lines span trace to `file`")
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metrics snapshot (Prometheus text format) to stderr on exit")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve /debug/pprof and /debug/vars on `addr` (e.g. :6060)")
	fs.StringVar(&f.Check, "check", "warn",
		"physical-invariant `policy`: strict (reject with a named error), warn (count and continue), off")
	return f
}

// Session is the live observability state of one CLI run.
type Session struct {
	root    obs.Span
	traceF  *os.File
	sink    *obs.JSONLSink
	cpuF    *os.File
	memPath string
	metrics bool
	sampler *obs.RuntimeSampler
	debug   *http.Server
	debugLn net.Listener
}

// Start opens the requested sinks and profiles and begins a root span
// named after the tool. It returns a Session whose Close must run
// before exit (defer it right after a successful Start).
func (f *Flags) Start(name string) (*Session, error) {
	s := &Session{memPath: f.MemProfile, metrics: f.Metrics}
	if f.Check != "" {
		p, err := check.ParsePolicy(f.Check)
		if err != nil {
			return nil, fmt.Errorf("-check: %w", err)
		}
		check.SetPolicy(p)
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		s.traceF = tf
		s.sink = obs.NewJSONLSink(tf)
		obs.Default().AddSink(s.sink)
	}
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			s.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		s.cpuF = cf
	}
	if f.PprofAddr != "" {
		// Listen synchronously so a bad address or an occupied port is a
		// startup error the operator sees, not a warning a goroutine
		// drops after the run is already underway. The server owns a
		// dedicated mux (never http.DefaultServeMux) and is shut down
		// gracefully by Session.Close.
		ln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		s.debugLn = ln
		s.debug = &http.Server{Handler: NewDebugMux()}
		go func() {
			if err := s.debug.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "warning: -pprof server: %v\n", err)
			}
		}()
	}
	// Any active observability surface also gets the runtime
	// self-metrics sampler: heap, GC pauses and goroutine count land in
	// the same registry as the pipeline counters, so the -metrics
	// snapshot, the trace's terminal metrics event and /debug/vars all
	// answer "what did the run cost the runtime".
	if f.Trace != "" || f.Metrics || f.PprofAddr != "" {
		s.sampler = obs.StartRuntimeSampler(obs.DefaultRegistry(), time.Second)
	}
	_, s.root = obs.StartCtx(context.Background(), name)
	return s, nil
}

// DebugAddr reports the -pprof listener's bound address ("" when
// -pprof is off) — useful when the flag asked for ":0".
func (s *Session) DebugAddr() string {
	if s == nil || s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// Context returns ctx carrying the session's root span, the parent
// for every obs.StartCtx span the run starts — thread it through the
// cmd's work (typically wrapping the Shutdown context) so concurrent
// stages attribute to the run instead of orphaning.
func (s *Session) Context(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return obs.ContextWithSpan(ctx, s.root)
}

// Close ends the root span, appends a final metrics snapshot to the
// trace, flushes and closes everything, and honours -metrics and
// -memprofile. Errors are reported to stderr (the tool's own exit
// status should reflect its work, not its telemetry).
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.root.End()
	if s.debug != nil {
		// Graceful: in-flight /debug requests (a profile capture, say)
		// finish, then the listener and its goroutine are released.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.debug.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "warning: -pprof shutdown: %v\n", err)
			s.debug.Close()
		}
		cancel()
		s.debug = nil
	}
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.sink != nil {
		snap := obs.DefaultRegistry().Snapshot()
		s.sink.Emit(&obs.Event{Type: obs.EventMetrics, Time: time.Now(), Snap: snap})
		obs.Default().RemoveSink(s.sink)
		if err := s.sink.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: trace write: %v\n", err)
		}
		if err := s.traceF.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: trace close: %v\n", err)
		}
	}
	if s.cpuF != nil {
		pprof.StopCPUProfile()
		if err := s.cpuF.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: cpuprofile close: %v\n", err)
		}
	}
	if s.memPath != "" {
		mf, err := os.Create(s.memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: -memprofile: %v\n", err)
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "warning: -memprofile: %v\n", err)
			}
			mf.Close()
		}
	}
	if s.metrics {
		snap := obs.DefaultRegistry().Snapshot()
		if err := snap.WriteText(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "warning: -metrics: %v\n", err)
		}
	}
	// A Warn-policy run that tripped invariants should say so even
	// without -metrics: the numbers were produced, but physically
	// suspect data flowed through the pipeline.
	if n := check.Violations(); n > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d physical-invariant violation(s) recorded (see check.violations metrics; rerun with -check=strict to fail fast)\n", n)
	}
}
