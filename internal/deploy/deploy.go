// Package deploy wires real TCP deployments of IrisNet: a JSON topology
// file names the sites and their addresses, one process hosts the name
// registry (the DNS-server role), and each irisnetd process runs one
// organizing agent. The cmd/ tools are thin wrappers over this package.
package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/metrics"
	"irisnet/internal/naming"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// registryEndpoint is the reserved transport name of the registry service.
const registryEndpoint = "__registry"

// Topology describes a deployment, shared by every daemon and tool.
type Topology struct {
	// Service is the DNS suffix, e.g. "parking.intel-iris.net".
	Service string `json:"service"`
	// Document is the path (relative to the topology file) of the initial
	// XML document.
	Document string `json:"document"`
	// Sites maps site names to host:port addresses.
	Sites map[string]string `json:"sites"`
	// RootOwner owns everything not assigned in Ownership.
	RootOwner string `json:"rootOwner"`
	// Ownership maps ID-path strings to owning site names.
	Ownership map[string]string `json:"ownership"`
	// Registry is the host:port of the name registry service.
	Registry string `json:"registry"`
	// Admins optionally maps site names to their admin (observability)
	// host:port addresses, letting each site's /debug/cluster federate the
	// whole deployment's views.
	Admins map[string]string `json:"admins,omitempty"`

	dir string // directory of the topology file, for Document resolution
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	var t Topology
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("deploy: parsing %s: %w", path, err)
	}
	t.dir = filepath.Dir(path)
	return &t, t.validate()
}

func (t *Topology) validate() error {
	switch {
	case t.Service == "":
		return fmt.Errorf("deploy: topology missing service")
	case t.Document == "":
		return fmt.Errorf("deploy: topology missing document")
	case len(t.Sites) == 0:
		return fmt.Errorf("deploy: topology has no sites")
	case t.RootOwner == "":
		return fmt.Errorf("deploy: topology missing rootOwner")
	case t.Registry == "":
		return fmt.Errorf("deploy: topology missing registry address")
	}
	if _, ok := t.Sites[t.RootOwner]; !ok {
		return fmt.Errorf("deploy: rootOwner %q is not a site", t.RootOwner)
	}
	for p, s := range t.Ownership {
		if _, ok := t.Sites[s]; !ok {
			return fmt.Errorf("deploy: ownership of %s names unknown site %q", p, s)
		}
		if _, err := xmldb.ParseIDPath(p); err != nil {
			return fmt.Errorf("deploy: bad ownership path: %w", err)
		}
	}
	for s := range t.Admins {
		if _, ok := t.Sites[s]; !ok {
			return fmt.Errorf("deploy: admin address for unknown site %q", s)
		}
	}
	return nil
}

// LoadDocument parses the topology's initial document.
func (t *Topology) LoadDocument() (*xmldb.Node, error) {
	path := t.Document
	if !filepath.IsAbs(path) {
		path = filepath.Join(t.dir, path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return xmldb.ParseString(string(b))
}

// Assignment builds the ownership assignment from the topology.
func (t *Topology) Assignment() (*fragment.Assignment, error) {
	a := fragment.NewAssignment(t.RootOwner)
	for pathText, siteName := range t.Ownership {
		p, err := xmldb.ParseIDPath(pathText)
		if err != nil {
			return nil, err
		}
		a.Assign(p, siteName)
	}
	return a, nil
}

// network builds the TCP transport with the full address book.
func (t *Topology) network() *transport.TCPNet {
	addrs := map[string]string{registryEndpoint: t.Registry}
	for name, addr := range t.Sites {
		addrs[name] = addr
	}
	return transport.NewTCPNet(addrs)
}

// registryMsg is the wire form of registry operations.
type registryMsg struct {
	Op   string `json:"op"` // "lookup" | "set"
	Name string `json:"name"`
	Site string `json:"site,omitempty"`
	OK   bool   `json:"ok,omitempty"`
}

// ServeRegistry hosts the in-memory registry on the topology's registry
// address. It returns the backing registry (for seeding) and a stop
// function.
func ServeRegistry(t *Topology, net *transport.TCPNet) (*naming.Registry, func(), error) {
	reg := naming.NewRegistry()
	h := func(_ context.Context, payload []byte) ([]byte, error) {
		var m registryMsg
		if err := json.Unmarshal(payload, &m); err != nil {
			return nil, err
		}
		switch m.Op {
		case "lookup":
			siteName, ok := reg.Lookup(m.Name)
			return json.Marshal(registryMsg{Op: "lookup", Name: m.Name, Site: siteName, OK: ok})
		case "set":
			reg.Set(m.Name, m.Site)
			return json.Marshal(registryMsg{Op: "set", OK: true})
		default:
			return nil, fmt.Errorf("deploy: unknown registry op %q", m.Op)
		}
	}
	if err := net.Register(registryEndpoint, h); err != nil {
		return nil, nil, err
	}
	return reg, func() { net.Unregister(registryEndpoint) }, nil
}

// RemoteRegistry is a naming.Store speaking to a served registry over TCP.
type RemoteRegistry struct {
	net transport.Network
}

// NewRemoteRegistry builds a remote registry client on the transport.
func NewRemoteRegistry(net transport.Network) *RemoteRegistry {
	return &RemoteRegistry{net: net}
}

// Lookup implements naming.Store.
func (r *RemoteRegistry) Lookup(name string) (string, bool) {
	b, err := json.Marshal(registryMsg{Op: "lookup", Name: name})
	if err != nil {
		return "", false
	}
	resp, err := r.net.Call(registryEndpoint, b)
	if err != nil {
		return "", false
	}
	var m registryMsg
	if err := json.Unmarshal(resp, &m); err != nil {
		return "", false
	}
	return m.Site, m.OK
}

// Set implements naming.Store.
func (r *RemoteRegistry) Set(name, siteName string) {
	b, err := json.Marshal(registryMsg{Op: "set", Name: name, Site: siteName})
	if err != nil {
		return
	}
	// Best effort: registry writes only happen during migrations, whose
	// initiator verifies via subsequent lookups.
	_, _ = r.net.Call(registryEndpoint, b)
}

// SiteOptions tunes StartSite.
type SiteOptions struct {
	// HostRegistry makes this process serve the name registry and seed it
	// with every IDable node's owner.
	HostRegistry bool
	// AdminAddr, when non-empty, serves the observability endpoint
	// (/metrics, /healthz, /debug/fragment, /debug/cluster, /debug/pprof)
	// on this host:port (":0" picks a free port; see Node.AdminAddr for
	// the bound address).
	AdminAddr string
	// ProfileInterval, when positive, runs a continuous CPU profiler that
	// takes a one-second sample each interval, served at
	// /debug/profile/latest. Requires AdminAddr.
	ProfileInterval time.Duration
	// Site is the template the site is built from: every site option is a
	// site.Config field and is set here (Site.Caching, Site.Logger,
	// Site.DataDir, ...). StartSite fills Name, Service, Net, DNS and
	// Registry, infers Schema from the document when nil, defaults CPUSlots
	// to 4, and a non-empty Site.DataDir becomes DataDir/<site-name>.
	Site site.Config
}

// Node is a running deployment member.
type Node struct {
	Site *site.Site
	Net  *transport.TCPNet
	// Metrics is the node's registry, serving /metrics when AdminAddr set.
	Metrics *metrics.Registry
	// Admin is the observability endpoint (nil unless AdminAddr was set).
	Admin *service.Admin
	// AdminAddr is the bound admin address ("" when disabled).
	AdminAddr string
	profiler  *service.ContinuousProfiler
	stopReg   func()
	registry  naming.Store
}

// Stop shuts the node down.
func (n *Node) Stop() {
	if n.profiler != nil {
		n.profiler.Stop()
	}
	if n.Admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = n.Admin.Shutdown(ctx)
		cancel()
	}
	n.Site.Stop()
	if n.stopReg != nil {
		n.stopReg()
	}
	n.Net.Close()
}

// siteConfig is the one place a deployed site is configured: the caller's
// template with the site's identity and the deployment's wiring filled in.
func siteConfig(sc site.Config, t *Topology, name string, net transport.Network, registry naming.Store, doc *xmldb.Node) site.Config {
	sc.Name = name
	sc.Service = t.Service
	sc.Net = net
	sc.DNS = naming.NewClient(registry, t.Service, time.Minute, nil)
	sc.Registry = registry
	if sc.Schema == nil {
		sc.Schema = xpath.InferSchema(doc)
	}
	if sc.CPUSlots == 0 {
		sc.CPUSlots = 4
	}
	if sc.DataDir != "" {
		sc.DataDir = filepath.Join(sc.DataDir, name)
	}
	return sc
}

// StartSite loads the shared document, partitions it per the topology, and
// runs the named site over TCP. Every process derives the same partition
// deterministically from the shared topology, so no coordination is needed
// at startup.
func StartSite(t *Topology, name string, opts SiteOptions) (*Node, error) {
	if _, ok := t.Sites[name]; !ok {
		return nil, fmt.Errorf("deploy: unknown site %q", name)
	}
	doc, err := t.LoadDocument()
	if err != nil {
		return nil, err
	}
	assign, err := t.Assignment()
	if err != nil {
		return nil, err
	}
	stores, owned, err := fragment.Partition(doc, assign)
	if err != nil {
		return nil, err
	}
	net := t.network()

	node := &Node{Net: net}
	if opts.HostRegistry {
		reg, stop, err := ServeRegistry(t, net)
		if err != nil {
			return nil, err
		}
		reg.RegisterSubtree(doc, t.Service, assign.OwnerOf)
		node.stopReg = stop
		node.registry = reg
	} else {
		node.registry = NewRemoteRegistry(net)
	}

	sc := siteConfig(opts.Site, t, name, net, node.registry, doc)
	s := site.New(sc, doc.Name, doc.ID())
	store, okStore := stores[name]
	if !okStore {
		store = fragment.NewStore(doc.Name, doc.ID())
	}
	if _, err := s.Recover(store, owned[name]); err != nil {
		return nil, fmt.Errorf("deploy: recovering site %s: %w", name, err)
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	node.Site = s

	node.Metrics = metrics.NewRegistry()
	s.Register(node.Metrics)
	node.Metrics.RegisterProcess()
	if opts.AdminAddr != "" {
		admin := service.NewAdmin(node.Metrics)
		admin.AddSite(s)
		if len(t.Admins) > 0 {
			peers := make(map[string]string, len(t.Admins))
			for peer, addr := range t.Admins {
				if peer != name {
					peers[peer] = addr
				}
			}
			admin.SetPeers(peers)
		}
		if opts.ProfileInterval > 0 {
			node.profiler = service.StartContinuousProfiler(opts.ProfileInterval, 0)
			admin.AttachProfiler(node.profiler)
		}
		bound, err := admin.Serve(opts.AdminAddr)
		if err != nil {
			if node.profiler != nil {
				node.profiler.Stop()
			}
			s.Stop()
			if node.stopReg != nil {
				node.stopReg()
			}
			return nil, fmt.Errorf("deploy: admin endpoint: %w", err)
		}
		node.Admin = admin
		node.AdminAddr = bound
	}
	return node, nil
}

// NewFrontend builds a query frontend for tools (irisquery, irisload).
func NewFrontend(t *Topology) *service.Frontend {
	net := t.network()
	return service.NewFrontend(net, naming.NewClient(NewRemoteRegistry(net), t.Service, time.Minute, nil))
}
