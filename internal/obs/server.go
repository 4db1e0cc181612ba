package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// Server is the live ops endpoint: an HTTP listener serving
//
//	/metrics       Prometheus text exposition of the registry
//	/statusz       JSON cluster snapshot from a pluggable provider
//	/debug/pprof/  the standard Go profiling handlers
//
// It is opt-in (nothing listens unless a command passes -obs-addr), serves
// scrapes without ever blocking instrument writers, and is safe to
// repoint: SetRegistry/SetStatus swap the sources atomically, so
// a driver that rebuilds its cluster between scenarios keeps one server
// up.
type Server struct {
	lis   net.Listener
	srv   *http.Server
	start time.Time

	reg    atomic.Pointer[Registry]
	status atomic.Pointer[func() any]
}

// NewServer starts an ops server on addr (e.g. "127.0.0.1:9100"; port 0
// picks a free port — see Addr). reg may be nil until SetRegistry.
func NewServer(addr string, reg *Registry) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{lis: lis, start: time.Now()}
	if reg != nil {
		s.reg.Store(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// SetRegistry atomically swaps the registry /metrics serves.
func (s *Server) SetRegistry(reg *Registry) { s.reg.Store(reg) }

// SetStatus installs the /statusz provider: fn is called per request and
// its result rendered as JSON.
func (s *Server) SetStatus(fn func() any) { s.status.Store(&fn) }

// Close shuts the listener and server down.
func (s *Server) Close() error { return s.srv.Close() }

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.reg.Load()
	if reg == nil {
		http.Error(w, "no registry attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

// statuszEnvelope is the fixed outer shape of /statusz; Status carries the
// provider's cluster snapshot.
type statuszEnvelope struct {
	// UptimeSeconds is how long this ops server has been up.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Status is the driver-provided cluster snapshot (null when no
	// provider is installed).
	Status any `json:"status"`
}

// handleStatusz serves the JSON cluster snapshot.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	env := statuszEnvelope{UptimeSeconds: time.Since(s.start).Seconds()}
	if fn := s.status.Load(); fn != nil {
		env.Status = (*fn)()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(env)
}
