// Package cluster assembles a full deployment of the system inside one
// process, over the simulated network fabric: a version manager, a
// provider manager (co-hosting the metadata directory), N data providers
// and M metadata providers — the paper's experimental topology, where
// each storage node hosts one data provider and one metadata provider and
// the two managers run on dedicated nodes.
//
// Every role instance is an internal/node node started on its own
// netsim host and port, wired exactly as cmd/blobnode wires it over
// TCP; this package only lays out the topology and adds the fault hooks
// the tests, examples and benchmark harness use.
package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/core"
	"blob/internal/dht"
	"blob/internal/erasure"
	"blob/internal/events"
	"blob/internal/monitor"
	"blob/internal/netsim"
	"blob/internal/node"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
)

// Config describes a deployment.
type Config struct {
	// DataProviders is the number of data provider processes (default 4).
	DataProviders int
	// MetaProviders is the number of metadata providers (default 4).
	MetaProviders int
	// CoLocate places data provider i and metadata provider i on the same
	// simulated host, sharing its NIC — the paper's topology (default
	// true when DataProviders == MetaProviders).
	CoLocate bool
	// DataReplicas is the page replication factor (default 1). Ignored
	// when Redundancy selects erasure coding.
	DataReplicas int
	// Redundancy is the deployment's redundancy mode (docs/erasure.md):
	// the zero value keeps full replication at DataReplicas copies;
	// rs(k,m) stripes every new blob over k+m distinct providers with m
	// parity pages per stripe. The provider manager advertises the mode
	// and every cluster client (including the repair agent) adopts it.
	// Requires DataProviders >= k+m.
	Redundancy erasure.Redundancy
	// MetaReplicas is the tree node replication factor (default 1).
	MetaReplicas int
	// Net is the simulated fabric configuration (latency/bandwidth);
	// zero value = instant network.
	Net netsim.Config
	// ProviderCapacity bounds each data provider's RAM (0 = unlimited).
	ProviderCapacity int64
	// Strategy is the page placement policy.
	Strategy pmanager.Strategy
	// RepairTimeout enables dead-writer repair at the version manager.
	RepairTimeout time.Duration
	// CacheNodes is the default client metadata cache size (0 disables,
	// negative = the paper's 2^20).
	CacheNodes int
	// HeartbeatInterval, when positive, starts per-provider heartbeat
	// loops and makes the provider manager filter silent providers after
	// 4 intervals.
	HeartbeatInterval time.Duration
	// MetaPutDelay models the metadata backend's per-entry put cost (the
	// BambooDHT asymmetry; see dht.Store.PutDelay). Zero for unit tests.
	MetaPutDelay time.Duration
	// MetaProcessDelay models the client-side per-node deserialization
	// cost (see mstore.Client.ProcessDelay). Zero for unit tests.
	MetaProcessDelay time.Duration
	// DataDir, when non-empty, makes data providers persistent: provider
	// i keeps its pages in a diskstore segment log under
	// DataDir/provider-<i> and serves them again after a restart
	// (RestartDataProvider). Empty keeps the paper's RAM-only providers.
	DataDir string
	// SegmentSize is the disk-backed providers' segment file size
	// (0 = diskstore default, 4 MiB). Ignored without DataDir.
	SegmentSize int64
	// DiskCacheBytes, when positive, fronts each disk-backed provider
	// with a write-through RAM cache of that many bytes. Ignored without
	// DataDir.
	DiskCacheBytes int64
	// CompactEvery, when positive, runs each disk-backed provider's
	// segment compactor with that period. Ignored without DataDir.
	CompactEvery time.Duration
	// CompactRateBytes, when positive, throttles each disk-backed
	// provider's compaction I/O to roughly that many bytes per second so
	// reclamation cannot starve foreground page traffic. Ignored without
	// DataDir.
	CompactRateBytes int64
	// RepairInterval, when positive, runs a background replica-repair
	// agent (internal/repair, protocol in docs/replication.md) over every
	// blob with that period, so a replica set degraded by a provider
	// crash or disk loss returns to full strength without client
	// involvement. Provider-to-provider pulls are always served
	// regardless; the interval only drives the in-process agent.
	RepairInterval time.Duration
	// RepairRateBytes, when positive, throttles each provider's repair
	// page pulls to roughly that many bytes per second (token bucket,
	// like CompactRateBytes for compaction) so repair traffic cannot
	// starve foreground reads and writes.
	RepairRateBytes int64
	// VShards is the number of version-manager shards (default 1). With
	// VShards or VReplicas above 1 the deployment runs a sharded,
	// replicated vmanager group (docs/vmanager-group.md) instead of the
	// single Manager: blob ids place onto shards by ring hash, and each
	// shard is a leader + followers replica set.
	VShards int
	// VReplicas is the replica count per vmanager shard (default 1).
	// Mutations are acked by a follower quorum before returning.
	VReplicas int
	// VMHeartbeat is the shard leaders' idle append interval (default
	// 25ms — simulation-fast).
	VMHeartbeat time.Duration
	// VMElectionTimeout is the base silence before a follower
	// campaigns (default 8*VMHeartbeat).
	VMElectionTimeout time.Duration
	// VMMaxLogRecords caps each vmanager replica's in-memory publish
	// log (group mode only; 0 = the replica default). Beyond the cap
	// the leader drops the older half and lagging followers catch up
	// from a checkpoint snapshot instead of log replay. Tests set it
	// low to force truncation at small scale and prove historical
	// versions stay readable afterwards (the blob state checkpoints
	// carry every version's size and history; page metadata lives in
	// the DHT and is never truncated).
	VMMaxLogRecords int
	// VMAppendDelay simulates per-record log append durability cost at
	// each shard leader, slept under the shard's serializing lock — the
	// knob that makes publish throughput scale measurably with shard
	// count (bench.AblateVmanagerShards).
	VMAppendDelay time.Duration
	// TraceSampleEvery, when positive, arms every node role and every
	// cluster client with a span tracer sampling 1-in-N root operations
	// (1 = trace everything). Spans land in per-process ring buffers;
	// TraceSpans gathers one trace across all of them, like blobctl
	// trace does over MSpans in a real deployment. Zero disables
	// tracing entirely (the allocation-free path).
	TraceSampleEvery int
	// SlowThreshold is forwarded to each client's slow-request log (see
	// core.Options.SlowThreshold). Only meaningful with tracing armed.
	SlowThreshold time.Duration
	// EventRing overrides every node's event-journal ring size
	// (0 = events.DefaultRing; negative disables journals entirely).
	EventRing int
	// Breakers arms per-peer circuit breakers (rpc.BreakerConfig
	// defaults) on every cluster client's connection pool; breaker
	// transitions land in the client's event journal and surface
	// through Events and the monitor.
	Breakers bool
	// DisableHedging turns off clients' hedged reads (on by default;
	// the knob exists for the chaos bench ablation).
	DisableHedging bool
	// Monitor, when true, embeds a cluster monitor (internal/monitor)
	// polling the deployment from its own "monitor" host; Cluster.Mon
	// exposes it.
	Monitor bool
	// MonitorInterval is the embedded monitor's poll period
	// (0 = the monitor default, 1s).
	MonitorInterval time.Duration
}

func (c *Config) fillDefaults() {
	if c.DataProviders <= 0 {
		c.DataProviders = 4
	}
	if c.MetaProviders <= 0 {
		c.MetaProviders = 4
	}
	if c.DataReplicas < 1 {
		c.DataReplicas = 1
	}
	if c.MetaReplicas < 1 {
		c.MetaReplicas = 1
	}
	if c.VShards < 1 {
		c.VShards = 1
	}
	if c.VReplicas < 1 {
		c.VReplicas = 1
	}
	if c.VMHeartbeat <= 0 {
		c.VMHeartbeat = 25 * time.Millisecond
	}
	if c.VMElectionTimeout <= 0 {
		c.VMElectionTimeout = 8 * c.VMHeartbeat
	}
}

// vmGrouped reports whether the deployment runs the sharded/replicated
// vmanager plane rather than the single in-process Manager.
func (c *Config) vmGrouped() bool { return c.VShards > 1 || c.VReplicas > 1 }

// Cluster is a running deployment.
type Cluster struct {
	cfg Config
	fab *netsim.Net

	// PM is the provider manager of the "pm" node.
	PM *pmanager.Manager

	// VMShardAddrs[s][r] is the RPC address of replica r of vmanager
	// shard s (group mode only).
	VMShardAddrs [][]string

	// DataStores holds each data provider's storage backend: in-RAM
	// provider.Store by default, or a disk-backed (optionally cached)
	// stack when Config.DataDir is set.
	DataStores []provider.PageStore
	// DataServices hosts the RPC handlers over the corresponding
	// DataStores entry.
	DataServices []*provider.Service
	MetaStores   []*dht.Store

	// DataServers and MetaServers expose the per-node RPC servers for
	// failure injection in tests (stopping one simulates a node crash).
	DataServers []*rpc.Server
	MetaServers []*rpc.Server

	VMAddr  string
	PMAddr  string
	DirAddr string
	// RepairAddr is the repair node, which serves the repair agent's
	// event journal over MEvents (set when Config.RepairInterval > 0).
	RepairAddr string

	// Mon is the embedded cluster monitor (Config.Monitor).
	Mon *monitor.Monitor

	clientSeq atomic.Int64

	// mu guards the node tables, the Data* slice elements (which
	// RestartDataProvider replaces), tracers and journals. Tests that
	// index the exported slices directly must not do so concurrently
	// with RestartDataProvider.
	mu sync.RWMutex
	// nodes is every node incarnation ever started, for Shutdown.
	nodes      []*node.Node
	dataNodes  []*node.Node
	vmNodes    [][]*node.Node // group mode; nil after KillVMReplica
	repairNode *node.Node
	// tracers and journals outlive restarted incarnations: their spans
	// and events happened.
	tracers  []*trace.Tracer
	journals []*events.Journal
}

// newTracer creates (and retains, for TraceSpans) a span tracer for the
// named client, or returns nil when tracing is disabled.
func (c *Cluster) newTracer(name string) *trace.Tracer {
	if c.cfg.TraceSampleEvery <= 0 {
		return nil
	}
	t := trace.New(name, trace.DefaultRing, c.cfg.TraceSampleEvery)
	c.mu.Lock()
	c.tracers = append(c.tracers, t)
	c.mu.Unlock()
	return t
}

// TraceSpans gathers every recorded span of one trace across all node
// and client ring buffers — the in-process equivalent of blobctl trace
// querying MSpans on each node.
func (c *Cluster) TraceSpans(traceID uint64) []trace.Span {
	c.mu.RLock()
	tracers := append([]*trace.Tracer(nil), c.tracers...)
	c.mu.RUnlock()
	var spans []trace.Span
	for _, t := range tracers {
		spans = append(spans, t.SpansFor(traceID)...)
	}
	return spans
}

// newJournal creates (and retains, for Events) the event journal of the
// named client, or nil when Config.EventRing is negative.
func (c *Cluster) newJournal(name string) *events.Journal {
	if c.cfg.EventRing < 0 {
		return nil
	}
	j := events.NewJournal(name, c.cfg.EventRing)
	c.mu.Lock()
	c.journals = append(c.journals, j)
	c.mu.Unlock()
	return j
}

// Events merges every node and client journal, oldest first by
// timestamp — the in-process equivalent of the monitor tailing MEvents
// cluster-wide. Journals of restarted nodes' dead incarnations are
// included (their events happened), which is exactly what a drill
// asserting event order wants.
func (c *Cluster) Events() []events.Event {
	c.mu.RLock()
	journals := append([]*events.Journal(nil), c.journals...)
	c.mu.RUnlock()
	var evs []events.Event
	for _, j := range journals {
		evs = append(evs, j.Events()...)
	}
	sort.SliceStable(evs, func(i, k int) bool { return evs[i].Time < evs[k].Time })
	return evs
}

// hostDialer adapts a netsim host to rpc.Network.
type hostDialer struct{ h *netsim.Host }

// Dial implements rpc.Network.
func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

// nodeConfig is the deployment-wide node configuration for the given
// roles; callers add the per-instance fields.
func (c *Cluster) nodeConfig(roles ...string) node.Config {
	cfg := &c.cfg
	return node.Config{
		Roles:           roles,
		PM:              c.PMAddr,
		Strategy:        cfg.Strategy,
		Redundancy:      cfg.Redundancy,
		Replicas:        cfg.DataReplicas,
		Heartbeat:       cfg.HeartbeatInterval,
		RepairTimeout:   cfg.RepairTimeout,
		MetaReplicas:    cfg.MetaReplicas,
		VShards:         cfg.VShards,
		VMHeartbeat:     cfg.VMHeartbeat,
		VMElection:      cfg.VMElectionTimeout,
		VMAppendDelay:   cfg.VMAppendDelay,
		VMMaxLogRecords: cfg.VMMaxLogRecords,
		Capacity:        cfg.ProviderCapacity,
		SegmentSize:     cfg.SegmentSize,
		DiskCache:       cfg.DiskCacheBytes,
		CompactEvery:    cfg.CompactEvery,
		CompactRate:     cfg.CompactRateBytes,
		RepairRate:      cfg.RepairRateBytes,
		MetaPutDelay:    cfg.MetaPutDelay,
		RepairInterval:  cfg.RepairInterval,
		Breakers:        cfg.Breakers,
		SlowThreshold:   cfg.SlowThreshold,
		Poll:            cfg.MonitorInterval,
		TraceSample:     cfg.TraceSampleEvery,
		EventRing:       cfg.EventRing,
		OnProviderDeath: c.wakeRepair,
	}
}

// start boots a node serving at host:port and retains it for Shutdown,
// Events and TraceSpans.
func (c *Cluster) start(host, port string, nc node.Config) (*node.Node, error) {
	h := c.fab.Host(host)
	l, err := h.Listen(port)
	if err != nil {
		return nil, err
	}
	nc.Listener, nc.Network, nc.Advertise = l, hostDialer{h}, host+":"+port
	n, err := node.Start(context.Background(), nc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = append(c.nodes, n)
	c.journals = append(c.journals, n.Journal())
	if t := n.Tracer(); t != nil {
		c.tracers = append(c.tracers, t)
	}
	return n, nil
}

// hostName names the simulated host of storage node i: "node<i>" when
// data and metadata providers co-locate, else "<kind><i>".
func (c *Cluster) hostName(kind string, i int) string {
	if c.cfg.CoLocate || c.cfg.DataProviders == c.cfg.MetaProviders {
		return fmt.Sprintf("node%d", i)
	}
	return fmt.Sprintf("%s%d", kind, i)
}

// providerDir is data provider i's directory under Config.DataDir.
func (c *Cluster) providerDir(i int) string {
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("provider-%d", i))
}

// Launch starts a deployment.
func Launch(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if err := cfg.Redundancy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Redundancy.IsRS() && cfg.DataProviders < cfg.Redundancy.Shards() {
		return nil, fmt.Errorf("cluster: %s needs at least %d data providers, config has %d",
			cfg.Redundancy, cfg.Redundancy.Shards(), cfg.DataProviders)
	}
	c := &Cluster{
		cfg:          cfg,
		fab:          netsim.New(cfg.Net),
		PMAddr:       "pm:rpc",
		DirAddr:      "pm:rpc",
		dataNodes:    make([]*node.Node, cfg.DataProviders),
		DataStores:   make([]provider.PageStore, cfg.DataProviders),
		DataServices: make([]*provider.Service, cfg.DataProviders),
		DataServers:  make([]*rpc.Server, cfg.DataProviders),
	}
	if err := c.launch(); err != nil {
		c.Shutdown()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) launch() error {
	cfg := &c.cfg
	pm, err := c.start("pm", "rpc", c.nodeConfig(node.PManager))
	if err != nil {
		return err
	}
	c.PM = pm.PM()
	for i := range cfg.DataProviders {
		if _, err := c.startDataProvider(i); err != nil {
			return err
		}
	}
	for i := range cfg.MetaProviders {
		n, err := c.start(c.hostName("meta", i), "meta", c.nodeConfig(node.Metadata))
		if err != nil {
			return err
		}
		c.MetaStores = append(c.MetaStores, n.MetaStore())
		c.MetaServers = append(c.MetaServers, n.Server())
	}

	// Version plane: one manager on the "vm" node, or VShards x
	// VReplicas replicas on hosts "vm-s<shard>r<replica>". Peer addresses
	// are deterministic, so every replica knows its shard-mates up front
	// and a restarted replica comes back at the same address
	// (docs/vmanager-group.md).
	vm := [][]string{{"vm:rpc"}}
	if !cfg.vmGrouped() {
		if _, err := c.start("vm", "rpc", c.nodeConfig(node.VManager)); err != nil {
			return err
		}
	} else {
		c.VMShardAddrs = make([][]string, cfg.VShards)
		c.vmNodes = make([][]*node.Node, cfg.VShards)
		for s := range c.VMShardAddrs {
			c.VMShardAddrs[s] = make([]string, cfg.VReplicas)
			for j := range c.VMShardAddrs[s] {
				c.VMShardAddrs[s][j] = fmt.Sprintf("vm-s%dr%d:rpc", s, j)
			}
			c.vmNodes[s] = make([]*node.Node, cfg.VReplicas)
			for j := range c.vmNodes[s] {
				if err := c.startVMReplica(s, j, false); err != nil {
					return err
				}
			}
		}
		vm = c.VMShardAddrs
	}
	// Address-only consumers (logs, health checks) of a group get shard
	// 0 replica 0.
	c.VMAddr = vm[0][0]

	var eventNodes []string
	if cfg.RepairInterval > 0 {
		nc := c.nodeConfig(node.Repairer)
		nc.VM = vm
		n, err := c.start("repair", "rpc", nc)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.repairNode = n
		c.mu.Unlock()
		c.RepairAddr = "repair:rpc"
		eventNodes = append(eventNodes, c.RepairAddr)
	}
	if cfg.Monitor {
		nc := c.nodeConfig(node.Monitor)
		nc.WatchVM, nc.WatchEvents = c.VMShardAddrs, eventNodes
		n, err := c.start("monitor", "rpc", nc)
		if err != nil {
			return err
		}
		c.Mon = n.Monitor()
	}
	return nil
}

// startDataProvider boots data provider i at "<host>:data" and installs
// it in the Data* tables (at launch and on restart).
func (c *Cluster) startDataProvider(i int) (*node.Node, error) {
	nc := c.nodeConfig(node.Provider)
	if c.cfg.DataDir != "" {
		nc.DataDir = c.providerDir(i)
	}
	n, err := c.start(c.DataHostName(i), "data", nc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dataNodes[i] = n
	c.DataStores[i], c.DataServices[i], c.DataServers[i] = n.Service().Store(), n.Service(), n.Server()
	return n, nil
}

// startVMReplica boots replica j of vmanager shard s on its own host,
// at launch (rejoin=false) and by RestartVMReplica (rejoin=true: the
// replica boots follower even at index 0).
func (c *Cluster) startVMReplica(s, j int, rejoin bool) error {
	nc := c.nodeConfig(node.VManager)
	nc.VPeers, nc.VShard, nc.VReplica, nc.VRejoin = c.VMShardAddrs[s], s, j, rejoin
	n, err := c.start(fmt.Sprintf("vm-s%dr%d", s, j), "rpc", nc)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.vmNodes[s][j] = n
	c.mu.Unlock()
	return nil
}

// wakeRepair is the pm node's OnProviderDeath hook: heartbeat-death
// detection triggers an immediate repair sweep instead of waiting out
// the RepairInterval timer.
func (c *Cluster) wakeRepair(uint32) {
	c.mu.RLock()
	n := c.repairNode
	c.mu.RUnlock()
	if n != nil {
		n.RepairNow()
	}
}

// dataNode returns data provider i's current incarnation, or nil.
func (c *Cluster) dataNode(i int) *node.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.dataNodes) {
		return nil
	}
	return c.dataNodes[i]
}

// StopProviderHeartbeat silences data provider i's heartbeats — the
// fault-injection hook for "the node silently died": the provider
// manager stops hearing from it, excludes it from placement, journals
// its death, and (when a repair node runs) triggers an immediate repair
// sweep. The provider keeps serving, and stays silent across
// RestartDataProvider until ResumeProviderHeartbeat. A no-op without
// Config.HeartbeatInterval.
func (c *Cluster) StopProviderHeartbeat(i int) {
	if n := c.dataNode(i); n != nil {
		n.SetHeartbeatPaused(true)
	}
}

// ResumeProviderHeartbeat restarts data provider i's heartbeats after
// StopProviderHeartbeat — the "node came back" half of a silent death
// drill. The manager re-admits the provider on its next beat.
func (c *Cluster) ResumeProviderHeartbeat(i int) {
	if n := c.dataNode(i); n != nil {
		n.SetHeartbeatPaused(false)
	}
}

// ClientOptions returns core.Options for a client on the named simulated
// host (each client host has its own NIC, like the paper's client nodes).
func (c *Cluster) ClientOptions(hostName string) core.Options {
	return core.Options{
		Network:          hostDialer{c.fab.Host(hostName)},
		VManagerAddr:     c.VMAddr,
		VManagerShards:   c.VMShardAddrs,
		PManagerAddr:     c.PMAddr,
		MetaDirAddr:      c.DirAddr,
		DataReplicas:     c.cfg.DataReplicas,
		Redundancy:       c.cfg.Redundancy,
		MetaReplicas:     c.cfg.MetaReplicas,
		CacheNodes:       c.cfg.CacheNodes,
		MetaProcessDelay: c.cfg.MetaProcessDelay,
		DisableHedging:   c.cfg.DisableHedging,
		Breakers:         c.cfg.Breakers,
		Journal:          c.newJournal(hostName),
		Tracer:           c.newTracer(hostName),
		SlowThreshold:    c.cfg.SlowThreshold,
	}
}

// NewClient connects a client on a fresh simulated host.
func (c *Cluster) NewClient(ctx context.Context) (*core.Client, error) {
	seq := c.clientSeq.Add(1)
	return core.NewClient(ctx, c.ClientOptions(fmt.Sprintf("client%d", seq)))
}

// NewClientAt connects a client on a specific simulated host.
func (c *Cluster) NewClientAt(ctx context.Context, host string) (*core.Client, error) {
	return core.NewClient(ctx, c.ClientOptions(host))
}

// TotalDataPages sums the page counts across data providers.
func (c *Cluster) TotalDataPages() int64 {
	c.mu.RLock()
	stores := append([]provider.PageStore(nil), c.DataStores...)
	c.mu.RUnlock()
	var n int64
	for _, st := range stores {
		n += st.Snapshot().PageCount
	}
	return n
}

// TotalMetaNodes sums stored tree nodes across metadata providers.
func (c *Cluster) TotalMetaNodes() int {
	n := 0
	for _, st := range c.MetaStores {
		n += st.Len()
	}
	return n
}

// RestartDataProvider simulates a crash-and-relaunch of data provider i:
// its node closes (for a disk-backed provider this is where durability
// matters — a RAM provider comes back empty), and a fresh node opens the
// same data directory and serves it at the same address, so placements
// recorded in the metadata remain valid. The fresh service starts with
// zeroed repair counters: post-restart stats report only the new
// incarnation's repair work.
func (c *Cluster) RestartDataProvider(i int) error {
	return c.restartDataProvider(i, false)
}

// WipeDataProvider restarts data provider i with its data directory
// destroyed first — the total-disk-loss scenario the repair protocol
// exists for. The provider comes back empty at the same address; the
// repair agent (or read-repair) must restore its replicas. For a
// RAM-only provider this is identical to RestartDataProvider.
func (c *Cluster) WipeDataProvider(i int) error {
	return c.restartDataProvider(i, true)
}

func (c *Cluster) restartDataProvider(i int, wipe bool) error {
	old := c.dataNode(i)
	if old == nil {
		return fmt.Errorf("cluster: no data provider %d", i)
	}
	old.Close()
	if wipe && c.cfg.DataDir != "" {
		if err := os.RemoveAll(c.providerDir(i)); err != nil {
			return fmt.Errorf("cluster: wipe provider %d data dir: %w", i, err)
		}
	}
	n, err := c.startDataProvider(i)
	if err != nil {
		return fmt.Errorf("cluster: restart provider %d: %w", i, err)
	}
	n.SetHeartbeatPaused(old.HeartbeatPaused())
	return nil
}

// Shutdown closes every node, newest first, then the fabric.
func (c *Cluster) Shutdown() {
	c.mu.RLock()
	nodes := append([]*node.Node(nil), c.nodes...)
	c.mu.RUnlock()
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes[i].Close()
	}
	c.fab.Close()
}
