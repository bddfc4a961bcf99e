package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/metrics"
	"irisnet/internal/site"
)

// Admin is the HTTP observability surface of a running irisnetd (or of a
// whole simulated cluster, which hosts many sites in one process):
//
//	/metrics               Prometheus text exposition of the metrics registry
//	/healthz               200 while serving, 503 once shutdown has begun
//	/debug/fragment        per-site JSON: owned paths, store size, cache
//	                       occupancy, and the migration forwarding table;
//	                       ?site=<name> selects one site (404 when unknown)
//	/debug/cluster         federated topology + counters view: this admin's
//	                       sites plus every configured peer admin's
//	                       (?scope=local suppresses fan-out, ?format=text
//	                       renders a table)
//	/debug/pprof/...       net/http/pprof profiling endpoints
//	/debug/profile/latest  most recent continuous CPU profile sample, when
//	                       a ContinuousProfiler is attached
type Admin struct {
	registry *metrics.Registry

	mu       sync.Mutex
	sites    []*site.Site
	peers    map[string]string // peer site name -> admin host:port
	profiler *ContinuousProfiler

	down atomic.Bool
	srv  *http.Server
	ln   net.Listener
}

// NewAdmin creates an admin surface over the given registry.
func NewAdmin(reg *metrics.Registry) *Admin {
	return &Admin{registry: reg}
}

// AddSite exposes a site on /debug/fragment (and nothing else: metric
// registration stays explicit via site.Register, so callers control label
// sets).
func (a *Admin) AddSite(s *site.Site) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sites = append(a.sites, s)
}

// SetPeers configures the other admin endpoints of the deployment
// (peer site name -> admin address) that /debug/cluster federates.
func (a *Admin) SetPeers(peers map[string]string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.peers = make(map[string]string, len(peers))
	for name, addr := range peers {
		a.peers[name] = addr
	}
}

// AttachProfiler exposes p's latest sample on /debug/profile/latest.
func (a *Admin) AttachProfiler(p *ContinuousProfiler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.profiler = p
}

// Handler returns the admin mux (exposed for httptest and embedding).
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/debug/fragment", a.handleFragment)
	mux.HandleFunc("/debug/cluster", a.handleCluster)
	mux.HandleFunc("/debug/profile/latest", a.handleLatestProfile)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.registry.WritePrometheus(w)
}

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if a.down.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (a *Admin) snapshotSites() []*site.Site {
	a.mu.Lock()
	defer a.mu.Unlock()
	sites := make([]*site.Site, len(a.sites))
	copy(sites, a.sites)
	return sites
}

func (a *Admin) handleFragment(w http.ResponseWriter, r *http.Request) {
	sel := r.URL.Query().Get("site")
	out := make([]site.DebugInfo, 0, 4)
	for _, s := range a.snapshotSites() {
		d := s.Debug()
		if sel != "" && d.Site != sel {
			continue
		}
		out = append(out, d)
	}
	if sel != "" && len(out) == 0 {
		http.Error(w, fmt.Sprintf("unknown site %q", sel), http.StatusNotFound)
		return
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// SiteView is one site's row in the /debug/cluster federated view:
// topology (ownership, cache footprint) plus serving/freshness counters.
type SiteView struct {
	site.DebugInfo
	Stats site.Stats `json:"stats"`
}

// PeerStatus records the outcome of federating one peer admin endpoint.
type PeerStatus struct {
	Addr  string `json:"addr"`
	Sites int    `json:"sites"`
	Error string `json:"error,omitempty"`
}

// ClusterView is the /debug/cluster payload.
type ClusterView struct {
	Sites []SiteView            `json:"sites"`
	Peers map[string]PeerStatus `json:"peers,omitempty"`
}

// clusterClient fetches peer views with a bounded wait so one unreachable
// peer cannot stall the whole federated view.
var clusterClient = &http.Client{Timeout: 2 * time.Second}

func (a *Admin) localClusterView() ClusterView {
	var view ClusterView
	for _, s := range a.snapshotSites() {
		view.Sites = append(view.Sites, SiteView{DebugInfo: s.Debug(), Stats: s.Stats()})
	}
	return view
}

func (a *Admin) handleCluster(w http.ResponseWriter, r *http.Request) {
	view := a.localClusterView()
	local := map[string]bool{}
	for _, sv := range view.Sites {
		local[sv.Site] = true
	}

	a.mu.Lock()
	peers := make(map[string]string, len(a.peers))
	for name, addr := range a.peers {
		peers[name] = addr
	}
	a.mu.Unlock()

	if r.URL.Query().Get("scope") != "local" && len(peers) > 0 {
		type peerResult struct {
			name, addr string
			view       ClusterView
			err        error
		}
		results := make(chan peerResult, len(peers))
		asked := 0
		for name, addr := range peers {
			if local[name] {
				continue // this admin already serves that site directly
			}
			asked++
			go func(name, addr string) {
				pv, err := fetchPeerCluster(r.Context(), addr)
				results <- peerResult{name: name, addr: addr, view: pv, err: err}
			}(name, addr)
		}
		view.Peers = make(map[string]PeerStatus, asked)
		for i := 0; i < asked; i++ {
			pr := <-results
			st := PeerStatus{Addr: pr.addr}
			if pr.err != nil {
				st.Error = pr.err.Error()
			}
			for _, sv := range pr.view.Sites {
				if local[sv.Site] {
					continue // dedup: the local snapshot wins
				}
				local[sv.Site] = true
				view.Sites = append(view.Sites, sv)
				st.Sites++
			}
			view.Peers[pr.name] = st
		}
	}
	sort.Slice(view.Sites, func(i, j int) bool { return view.Sites[i].Site < view.Sites[j].Site })

	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeClusterText(w, &view)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

// fetchPeerCluster asks one peer admin for its local-scope cluster view.
func fetchPeerCluster(ctx context.Context, addr string) (ClusterView, error) {
	var view ClusterView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/debug/cluster?scope=local", nil)
	if err != nil {
		return view, err
	}
	resp, err := clusterClient.Do(req)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("peer admin answered %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	return view, err
}

func writeClusterText(w http.ResponseWriter, view *ClusterView) {
	fmt.Fprintf(w, "%-20s %10s %8s %12s %8s %9s %9s %10s %12s\n",
		"SITE", "NODES", "CACHED", "CACHE-BYTES", "OWNED", "QUERIES", "HITS", "MISSES", "MAX-STALE-S")
	for _, sv := range view.Sites {
		fmt.Fprintf(w, "%-20s %10d %8d %12d %8d %9d %9d %10d %12s\n",
			sv.Site, sv.StoreNodes, sv.CachedFragments, sv.CacheBytes, len(sv.Owned),
			sv.Stats.Queries, sv.Stats.CacheHits, sv.Stats.CacheMisses,
			strconv.FormatFloat(sv.Stats.MaxStalenessSec, 'f', 1, 64))
	}
	for name, st := range view.Peers {
		if st.Error != "" {
			fmt.Fprintf(w, "# peer %s (%s): ERROR %s\n", name, st.Addr, st.Error)
		}
	}
}

func (a *Admin) handleLatestProfile(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	p := a.profiler
	a.mu.Unlock()
	if p == nil {
		http.Error(w, "no continuous profiler attached", http.StatusNotFound)
		return
	}
	data, at := p.Latest()
	if len(data) == 0 {
		http.Error(w, "no profile sampled yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Profile-Time", at.UTC().Format(time.RFC3339))
	_, _ = w.Write(data)
}

// Serve starts the admin server on addr (":0" picks a free port) and
// returns the bound address. The server runs until Shutdown.
func (a *Admin) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	a.ln = ln
	a.srv = &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = a.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// BeginShutdown flips /healthz to 503 without stopping the server, so load
// balancers drain the instance while /metrics stays scrapeable.
func (a *Admin) BeginShutdown() { a.down.Store(true) }

// Healthy reports the current /healthz state.
func (a *Admin) Healthy() bool { return !a.down.Load() }

// Shutdown marks the instance unhealthy and stops the HTTP server.
func (a *Admin) Shutdown(ctx context.Context) error {
	a.BeginShutdown()
	if a.srv == nil {
		return nil
	}
	return a.srv.Shutdown(ctx)
}
