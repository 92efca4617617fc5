// Package node is the one place the system's roles are wired together.
// A node is one process of a deployment: it serves one RPC listener and
// hosts any combination of the paper's roles — the provider manager
// (co-hosting the metadata directory), a version manager or one replica
// of a sharded version-manager group, a data provider, a metadata
// provider — plus the replica repair agent and the cluster monitor.
//
// Start owns each role's construction, background loops (provider
// heartbeats, heartbeat-death detection, version-manager checkpoints,
// repair sweeps, monitor polls) and Close its shutdown order. Both
// composition roots start nodes through it: cmd/blobnode parses flags
// into a Config over real TCP, and internal/cluster starts one node per
// role instance on simulated netsim hosts, so the laboratory and the
// production binary cannot wire a role two different ways.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/core"
	"blob/internal/dht"
	"blob/internal/diskstore"
	"blob/internal/erasure"
	"blob/internal/events"
	"blob/internal/monitor"
	"blob/internal/mstore"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/repair"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

// Role names accepted in Config.Roles (blobnode -roles).
const (
	PManager = "pmanager"
	VManager = "vmanager"
	Provider = "provider"
	Metadata = "metadata"
	Repairer = "repairer"
	Monitor  = "monitor"
)

// Config describes one node. Each field is a blobnode flag or a
// cluster.Config field (named in its comment); fields of roles the node
// does not host are ignored.
type Config struct {
	Roles []string // -roles
	// Listener is the bound RPC listener the node serves (-listen).
	// Start takes ownership: Close closes it, and so does a failed Start.
	Listener net.Listener
	// Network dials every outbound RPC: rpc.TCP{} or a netsim host.
	Network rpc.Network
	// Advertise is the address other nodes reach this one at
	// (-advertise); it also names the node's journal and tracer.
	Advertise string
	PM        string // -pm: provider manager / metadata directory address

	// The pmanager role's placement policy, advertised redundancy mode
	// and page replication factor.
	Strategy   pmanager.Strategy  // -strategy
	Redundancy erasure.Redundancy // -redundancy
	Replicas   int                // cluster DataReplicas
	// Heartbeat is the provider role's heartbeat interval (-heartbeat);
	// the pmanager role excludes providers silent for 4 intervals and
	// journals their death. Zero disables both the loop and the filter.
	Heartbeat time.Duration

	// The vmanager role: dead-writer repair (0 disables), whose DHT
	// client, like the repairer's, uses MetaReplicas; the single
	// manager's checkpoint file, saved every CheckpointEvery and on
	// Close; or, with VPeers, one replica of a sharded group.
	RepairTimeout   time.Duration // -repair
	MetaReplicas    int           // cluster MetaReplicas
	Checkpoint      string        // -checkpoint
	CheckpointEvery time.Duration // -checkpoint-interval
	VPeers          []string      // -vpeers
	VShards         int           // -vshards
	VShard          int           // -vshard
	VReplica        int           // -vreplica
	VRejoin         bool          // -vrejoin: boot as a follower after a crash
	VMHeartbeat     time.Duration // -vheartbeat
	VMElection      time.Duration // -velection
	VMAppendDelay   time.Duration // cluster VMAppendDelay
	VMMaxLogRecords int           // cluster VMMaxLogRecords

	// The provider role's page store (RAM, or persistent under DataDir
	// with the disk settings), pull throttle and boot-time gray failure.
	Capacity     int64         // -capacity
	DataDir      string        // -data-dir
	SegmentSize  int64         // -segment-size
	DiskCache    int64         // -disk-cache
	CompactEvery time.Duration // -compact-interval
	CompactRate  int64         // -compact-rate
	SyncWrites   bool          // -sync-writes
	RepairRate   int64         // -repair-rate
	ChaosDelay   time.Duration // -chaos-delay
	ChaosStall   bool          // -chaos-stall

	MetaPutDelay time.Duration // metadata role; cluster MetaPutDelay

	// The repairer role sweeps the version plane VM (one replica list
	// per shard) every RepairInterval through a client whose breakers
	// are always on in blobnode.
	RepairInterval time.Duration // -repair-interval
	VM             [][]string    // -vm
	Breakers       bool          // cluster Breakers
	SlowThreshold  time.Duration // -slow-threshold

	// The monitor role's poll period, version shards and extra journal
	// nodes.
	Poll        time.Duration // -poll
	WatchVM     [][]string    // -watch-vm
	WatchEvents []string      // -watch-events

	TraceSample int // -trace-sample: 1-in-N root operations (0 disables)
	TraceRing   int // -trace-ring
	EventRing   int // -event-ring: 0 = default, negative disables
	// Metrics, when set, receives the RPC handler histograms and the
	// provider series (blobnode creates it for -admin).
	Metrics *stats.Registry
	// Logf receives role and loop diagnostics (nil = silent).
	Logf func(format string, args ...any)
	// OnProviderDeath is called after the pmanager role journals a
	// provider's heartbeat death, besides waking a co-hosted repairer.
	// The cluster uses it to wake its repair node on another host.
	OnProviderDeath func(id uint32)
}

// validate checks the cross-field rules and returns the hosted roles.
func (c *Config) validate() (map[string]bool, error) {
	has := map[string]bool{}
	for _, r := range c.Roles {
		switch r {
		case PManager, VManager, Provider, Metadata, Repairer, Monitor:
			has[r] = true
		default:
			return nil, fmt.Errorf("unknown role %q", r)
		}
	}
	switch {
	case len(has) == 0:
		return nil, errors.New("no roles")
	case c.Heartbeat < 0:
		return nil, fmt.Errorf("negative heartbeat interval %v", c.Heartbeat)
	case c.PM == "" && (has[Provider] || has[Metadata] || has[Repairer] || has[Monitor] ||
		has[VManager] && c.RepairTimeout > 0):
		return nil, errors.New("provider, metadata, repairer, monitor and repairing vmanager roles need the provider manager address (-pm)")
	case has[Repairer] && (len(c.VM) == 0 || c.RepairInterval <= 0):
		return nil, errors.New("repairer role needs the version plane (-vm) and a positive sweep interval (-repair-interval)")
	case !has[VManager]:
	case len(c.VPeers) == 0:
		if c.Checkpoint != "" && c.CheckpointEvery <= 0 {
			return nil, fmt.Errorf("checkpoint interval %v must be positive", c.CheckpointEvery)
		}
	case c.Checkpoint != "":
		return nil, errors.New("vmanager checkpoint is incompatible with a replica group (the shard log is the durable state)")
	case c.VReplica < 0 || c.VReplica >= len(c.VPeers):
		return nil, fmt.Errorf("vmanager replica %d out of range for %d peers", c.VReplica, len(c.VPeers))
	case c.VShard < 0 || c.VShard >= c.VShards:
		return nil, fmt.Errorf("vmanager shard %d out of range for %d shards", c.VShard, c.VShards)
	}
	return has, nil
}

// Node is one running process of a deployment.
type Node struct {
	cfg     Config
	srv     *rpc.Server
	pool    *rpc.Pool
	journal *events.Journal
	tracer  *trace.Tracer

	pm     *pmanager.Manager
	vm     *vmanager.Manager
	vrep   *vmanager.Replica
	svc    *provider.Service
	meta   *dht.Store
	mon    *monitor.Monitor
	client *core.Client // the repairer's

	// ctx is canceled by Close; it stops the background loops and
	// bounds their RPCs.
	ctx       context.Context
	cancel    context.CancelFunc
	loops     sync.WaitGroup
	closing   atomic.Bool
	closeOnce sync.Once
	repairNow chan struct{}
	hbPaused  atomic.Bool
}

// Start builds the configured roles, serves them on cfg.Listener, then
// registers the provider and metadata roles with the provider manager
// and launches the background loops. ctx bounds only the boot-time RPCs;
// the node runs until Close.
func Start(ctx context.Context, cfg Config) (*Node, error) {
	n := &Node{
		cfg:       cfg,
		srv:       rpc.NewServer(),
		pool:      rpc.NewPool(cfg.Network),
		journal:   events.NewJournal(cfg.Advertise, cfg.EventRing),
		repairNow: make(chan struct{}, 1),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	hosts, err := cfg.validate()
	if err == nil {
		err = n.start(ctx, hosts)
	}
	if err != nil {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		n.Close()
		return nil, fmt.Errorf("node %s: %w", cfg.Advertise, err)
	}
	return n, nil
}

func (n *Node) start(ctx context.Context, hosts map[string]bool) error {
	cfg := &n.cfg
	if cfg.TraceSample > 0 {
		n.tracer = trace.New(cfg.Advertise, cfg.TraceRing, cfg.TraceSample)
		n.srv.SetTracer(n.tracer)
		n.logf("tracing 1-in-%d operations (ring %d spans)", cfg.TraceSample, cfg.TraceRing)
	}
	if cfg.Metrics != nil {
		n.srv.EnableMetrics(cfg.Metrics)
	}
	n.srv.SetJournal(n.journal)
	n.pool.SetJournal(n.journal)

	// Build every role and register its handlers before serving.
	if hosts[PManager] {
		n.pm = pmanager.New(pmanager.Config{
			Strategy:         cfg.Strategy,
			HeartbeatTimeout: 4 * cfg.Heartbeat,
			Replicas:         cfg.Replicas,
			Redundancy:       cfg.Redundancy,
			Journal:          n.journal,
		})
		n.pm.RegisterHandlers(n.srv)
		dht.NewDirectory().RegisterHandlers(n.srv)
		n.logf("role pmanager+directory (strategy %s, redundancy %s)", cfg.Strategy, cfg.Redundancy)
	}
	if hosts[VManager] {
		if err := n.buildVManager(ctx); err != nil {
			return err
		}
	}
	if hosts[Provider] {
		if err := n.buildProvider(); err != nil {
			return err
		}
	}
	if hosts[Metadata] {
		n.meta = dht.NewStore()
		n.meta.PutDelay = cfg.MetaPutDelay
		n.meta.RegisterHandlers(n.srv)
	}
	if hosts[Monitor] {
		n.mon = monitor.New(monitor.Config{
			Pool:       n.pool,
			PMAddr:     cfg.PM,
			VMShards:   cfg.WatchVM,
			EventNodes: cfg.WatchEvents,
			Interval:   cfg.Poll,
			Logf:       cfg.Logf,
		})
		n.mon.RegisterHandlers(n.srv)
		n.logf("role monitor (poll %v, %d vm shards, %d extra event nodes)",
			cfg.Poll, len(cfg.WatchVM), len(cfg.WatchEvents))
	}
	n.srv.Start(cfg.Listener)
	if n.mon != nil {
		n.mon.Start()
	}

	// Join the deployment and start the background loops.
	if n.svc != nil {
		id, err := pmanager.RegisterProvider(ctx, n.pool, cfg.PM, cfg.Advertise, cfg.Capacity)
		if err != nil {
			return fmt.Errorf("provider: register with %s: %w", cfg.PM, err)
		}
		n.logf("role provider (id %d, capacity %d, persistence %q, repair rate %d B/s)",
			id, cfg.Capacity, cfg.DataDir, cfg.RepairRate)
		if cfg.Heartbeat > 0 {
			n.goLoop(func() { n.heartbeatLoop(id) })
		}
	}
	if n.meta != nil {
		id, err := dht.RegisterWith(ctx, n.pool, cfg.PM, cfg.Advertise)
		if err != nil {
			return fmt.Errorf("metadata: register with %s: %w", cfg.PM, err)
		}
		n.logf("role metadata provider (id %d)", id)
	}
	if n.pm != nil {
		// Always watch: the watch journals heartbeat-death events for the
		// monitor whether or not a repairer listens for them.
		n.goLoop(func() { n.pm.DeathWatch(n.ctx.Done(), n.providerDied) })
	}
	if n.vm != nil && cfg.Checkpoint != "" {
		n.goLoop(n.checkpointLoop)
	}
	if hosts[Repairer] {
		return n.startRepairer(ctx)
	}
	return nil
}

// buildVManager builds the single version manager (restored from its
// checkpoint when one exists) or, with VPeers, one group replica.
func (n *Node) buildVManager(ctx context.Context) error {
	cfg := &n.cfg
	vcfg := vmanager.Config{RepairTimeout: cfg.RepairTimeout}
	if cfg.RepairTimeout > 0 {
		// The repair path writes no-op patches into the metadata DHT.
		kv, err := dht.NewDirectoryClient(ctx, n.pool, cfg.PM, cfg.MetaReplicas)
		if err != nil {
			return fmt.Errorf("vmanager: reach metadata directory: %w", err)
		}
		vcfg.Store = mstore.New(kv, 0)
	}
	if len(cfg.VPeers) > 0 {
		n.vrep = vmanager.NewReplica(vmanager.ReplicaConfig{
			Shard:           cfg.VShard,
			Shards:          cfg.VShards,
			Index:           cfg.VReplica,
			Peers:           cfg.VPeers,
			Pool:            n.pool,
			Heartbeat:       cfg.VMHeartbeat,
			ElectionTimeout: cfg.VMElection,
			AppendDelay:     cfg.VMAppendDelay,
			MaxLogRecords:   cfg.VMMaxLogRecords,
			Rejoin:          cfg.VRejoin,
			Journal:         n.journal,
			Manager:         vcfg,
		})
		n.vrep.RegisterHandlers(n.srv)
		n.logf("role vmanager replica (shard %d/%d, replica %d of %d, rejoin %v, repair %v)",
			cfg.VShard, cfg.VShards, cfg.VReplica, len(cfg.VPeers), cfg.VRejoin, cfg.RepairTimeout)
		return nil
	}
	if cfg.Checkpoint != "" {
		f, err := os.Open(cfg.Checkpoint)
		switch {
		case err == nil:
			n.vm, err = vmanager.Restore(f, vcfg)
			f.Close()
			if err != nil {
				return fmt.Errorf("vmanager: restore %s: %w", cfg.Checkpoint, err)
			}
			n.logf("role vmanager restored from %s", cfg.Checkpoint)
		case !os.IsNotExist(err):
			return fmt.Errorf("vmanager: open checkpoint: %w", err)
		}
	}
	if n.vm == nil {
		n.vm = vmanager.New(vcfg)
	}
	n.vm.RegisterHandlers(n.srv)
	n.logf("role vmanager (repair %v)", cfg.RepairTimeout)
	return nil
}

// buildProvider opens the page store stack — RAM, or a diskstore
// segment log optionally fronted by a write-through cache — and the
// data provider service over it.
func (n *Node) buildProvider() error {
	cfg := &n.cfg
	var st provider.PageStore = provider.NewStore(cfg.Capacity)
	if cfg.DataDir != "" {
		ds, err := provider.NewDiskStore(diskstore.Options{
			Dir:              cfg.DataDir,
			SegmentSize:      cfg.SegmentSize,
			Sync:             cfg.SyncWrites,
			CompactEvery:     cfg.CompactEvery,
			CompactRateBytes: cfg.CompactRate,
			Journal:          n.journal,
		}, cfg.Capacity)
		if err != nil {
			return fmt.Errorf("provider: open data dir %s: %w", cfg.DataDir, err)
		}
		snap := ds.Snapshot()
		n.logf("provider: recovered %d pages (%d live bytes, %d segments; %d sidecars loaded, %d bytes replayed) from %s",
			snap.PageCount, snap.BytesUsed, snap.Segments, snap.SidecarsLoaded, snap.ReplayedBytes, cfg.DataDir)
		st = ds
		if cfg.DiskCache > 0 {
			st = provider.NewCachedStore(ds, cfg.DiskCache)
		}
	}
	n.svc = provider.NewService(st)
	// Peer pulls (MPullPages) dial other providers through the node's
	// pool, throttled by RepairRate.
	n.svc.EnableRepair(n.pool, cfg.RepairRate)
	n.svc.RegisterHandlers(n.srv)
	if cfg.Metrics != nil {
		n.svc.RegisterMetrics(cfg.Metrics)
	}
	if cfg.ChaosDelay > 0 || cfg.ChaosStall {
		n.svc.SetChaos(cfg.ChaosDelay, cfg.ChaosStall)
		n.logf("provider: CHAOS armed (delay %v, stall %v)", cfg.ChaosDelay, cfg.ChaosStall)
	}
	return nil
}

// startRepairer connects the replica repair agent (docs/replication.md,
// docs/erasure.md) and starts its sweep loop. The agent's client is the
// deployment's long-lived client and its journal is what the monitor
// tails, so its breakers are the cluster's gray-failure detector
// (docs/robustness.md).
func (n *Node) startRepairer(ctx context.Context) error {
	cfg := &n.cfg
	client, err := core.NewClient(ctx, core.Options{
		Network:        cfg.Network,
		VManagerShards: cfg.VM,
		PManagerAddr:   cfg.PM,
		MetaDirAddr:    cfg.PM,
		MetaReplicas:   cfg.MetaReplicas,
		Tracer:         n.tracer,
		SlowThreshold:  cfg.SlowThreshold,
		Breakers:       cfg.Breakers,
		Journal:        n.journal,
	})
	if err != nil {
		return fmt.Errorf("repairer: connect: %w", err)
	}
	n.client = client
	agent := repair.New(client)
	agent.Log = cfg.Logf
	agent.Journal = n.journal
	n.goLoop(func() { n.repairLoop(agent) })
	n.logf("role repairer (interval %v)", cfg.RepairInterval)
	return nil
}

func (n *Node) goLoop(f func()) {
	n.loops.Add(1)
	go func() {
		defer n.loops.Done()
		f()
	}()
}

// heartbeatLoop reports the provider's load to the provider manager
// every Heartbeat, piggybacking its bloom holdings digest: the digest is
// recomputed only when the store's counters move, and its bytes ride a
// beat only while the manager's held hash disagrees
// (docs/observability.md).
func (n *Node) heartbeatLoop(id uint32) {
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	var digHash, held uint64
	var digest []byte
	lastPuts, lastPages := int64(-1), int64(-1)
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		if n.hbPaused.Load() {
			continue
		}
		snap := n.svc.Snapshot()
		if snap.Puts != lastPuts || snap.PageCount != lastPages {
			digHash, digest, _ = n.svc.DigestBytes()
			lastPuts, lastPages = snap.Puts, snap.PageCount
		}
		var payload []byte
		if digHash != 0 && digHash != held {
			payload = digest
		}
		// A beat that cannot land within one interval is superseded by
		// the next one.
		ctx, cancel := context.WithTimeout(n.ctx, n.cfg.Heartbeat)
		h, err := pmanager.SendHeartbeatDigest(ctx, n.pool, n.cfg.PM, id, snap.BytesUsed, snap.ActiveOps, digHash, payload)
		cancel()
		if err != nil {
			n.logf("heartbeat: %v", err)
			continue
		}
		held = h
	}
}

// providerDied is the pmanager role's DeathWatch callback.
func (n *Node) providerDied(id uint32) {
	n.logf("pmanager: provider %d stopped heartbeating", id)
	n.RepairNow()
	if n.cfg.OnProviderDeath != nil {
		n.cfg.OnProviderDeath(id)
	}
}

func (n *Node) checkpointLoop() {
	t := time.NewTicker(n.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			if err := n.saveCheckpoint(); err != nil {
				n.logf("checkpoint: %v", err)
			}
		}
	}
}

// saveCheckpoint writes the version manager's state atomically (temp
// file + rename).
func (n *Node) saveCheckpoint() error {
	path := n.cfg.Checkpoint
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := n.vm.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// repairLoop sweeps every blob each RepairInterval, or at once when
// RepairNow reports a provider death.
func (n *Node) repairLoop(agent *repair.Repairer) {
	t := time.NewTicker(n.cfg.RepairInterval)
	defer t.Stop()
	// A sweep gets four intervals, but never less than 30s: short test
	// intervals must not abort every sweep before it can finish.
	timeout := max(4*n.cfg.RepairInterval, 30*time.Second)
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		case <-n.repairNow:
			n.logf("repairer: provider death detected, sweeping now")
		}
		ctx, cancel := context.WithTimeout(n.ctx, timeout)
		n.sweep(ctx, agent)
		cancel()
	}
}

func (n *Node) sweep(ctx context.Context, agent *repair.Repairer) {
	// Re-learn the metadata membership each sweep: the boot-time ring
	// may predate some nodes' registration, and a stale ring hashes tree
	// nodes to the wrong provider.
	if err := n.client.Meta().Refresh(ctx); err != nil {
		n.logf("repairer: refresh metadata ring: %v", err)
	}
	blobs, err := n.client.VersionManager().Blobs(ctx)
	if err != nil {
		n.logf("repairer: list blobs: %v", err)
		return
	}
	rep, err := agent.RepairAll(ctx, blobs)
	if err != nil {
		n.logf("repairer: %v", err)
	}
	if rep.PagesMissing > 0 {
		n.logf("repairer: %d slots degraded, %d repaired (%d bytes pulled), %d reconstructed (%d bytes), %d unrepairable",
			rep.PagesMissing, rep.PagesRepaired, rep.BytesPulled,
			rep.PagesReconstructed, rep.ReconstructedBytes, rep.Unrepairable)
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// RepairNow wakes the repairer role's sweep loop ahead of its timer (a
// no-op without the role; a burst of wakes coalesces into one sweep).
func (n *Node) RepairNow() {
	select {
	case n.repairNow <- struct{}{}:
	default:
	}
}

// SetHeartbeatPaused pauses or resumes the provider role's heartbeats
// without stopping the node — the fault hook for a provider that
// silently died.
func (n *Node) SetHeartbeatPaused(paused bool) { n.hbPaused.Store(paused) }

// HeartbeatPaused reports whether SetHeartbeatPaused(true) is in force.
func (n *Node) HeartbeatPaused() bool { return n.hbPaused.Load() }

// Ready reports readiness (not liveness) with a reason: false once Close
// begins, and for a vmanager replica while its shard has no leader it
// can route to. Roles are built before the listener is served, so a
// serving node also has its page store open.
func (n *Node) Ready() (bool, string) {
	if n.closing.Load() {
		return false, "shutting down"
	}
	if n.vrep != nil {
		if st := n.vrep.Status(); !st.IsLeader && st.Leader < 0 {
			return false, fmt.Sprintf("vmanager shard %d: no reachable leader", st.Shard)
		}
	}
	return true, "ok"
}

// Server is the node's RPC server (closing it alone simulates a crash
// that keeps the process's loops running).
func (n *Node) Server() *rpc.Server { return n.srv }

// Journal is the node's event journal, served over MEvents.
func (n *Node) Journal() *events.Journal { return n.journal }

// Tracer is the node's span tracer (nil when tracing is off).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// PM is the pmanager role's manager (nil without the role).
func (n *Node) PM() *pmanager.Manager { return n.pm }

// Replica is the vmanager group replica (nil without one).
func (n *Node) Replica() *vmanager.Replica { return n.vrep }

// Service is the provider role's data service (nil without the role).
func (n *Node) Service() *provider.Service { return n.svc }

// MetaStore is the metadata role's store (nil without the role).
func (n *Node) MetaStore() *dht.Store { return n.meta }

// Monitor is the monitor role's aggregator (nil without the role).
func (n *Node) Monitor() *monitor.Monitor { return n.mon }

// Close stops the node: readiness drops, the background loops stop, the
// server stops serving, and only then do the page store close and the
// version manager write its final checkpoint. A GetPages answered from a
// closed store would report pages absent rather than failing the
// connection, and clients cannot tell that apart from data loss. Close
// is idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.closing.Store(true)
		n.cancel()
		n.loops.Wait()
		if n.mon != nil {
			n.mon.Close()
		}
		n.srv.Close()
		if n.svc != nil {
			if cl, ok := n.svc.Store().(io.Closer); ok {
				if err := cl.Close(); err != nil {
					n.logf("close data store: %v", err)
				}
			}
		}
		if n.vm != nil {
			if n.cfg.Checkpoint != "" {
				if err := n.saveCheckpoint(); err != nil {
					n.logf("final checkpoint: %v", err)
				}
			}
			n.vm.Close()
		}
		if n.vrep != nil {
			n.vrep.Close()
		}
		if n.client != nil {
			n.client.Close()
		}
		n.pool.Close()
	})
}
