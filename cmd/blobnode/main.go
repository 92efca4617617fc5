// Command blobnode runs one node of a real (TCP) deployment of the
// service. The same process can host any combination of roles, so the
// paper's topology — a version manager node, a provider manager node and
// N storage nodes each hosting one data provider and one metadata
// provider — maps onto:
//
//	# managers (provider manager co-hosts the metadata directory)
//	blobnode -listen :4000 -roles pmanager
//	blobnode -listen :4001 -roles vmanager -pm host0:4000
//
//	# optional replica repair agent (docs/replication.md)
//	blobnode -listen :4002 -roles repairer -pm host0:4000 -vm host1:4001
//
//	# or a sharded, replicated version plane (docs/vmanager-group.md):
//	# one process per replica, each shard a -vpeers group. Replica 0 of
//	# shard 0 looks like this; vary -vshard/-vreplica/-listen for the rest.
//	blobnode -listen :4001 -roles vmanager -pm host0:4000 \
//	         -vshards 2 -vshard 0 -vreplica 0 \
//	         -vpeers host1:4001,host2:4001,host3:4001
//	# a crashed replica restarts with the same flags plus -vrejoin
//
//	# each storage node (add -data-dir for a persistent, crash-recoverable
//	# provider; omit it for the paper's RAM-only mode)
//	blobnode -listen :4100 -roles provider,metadata \
//	         -pm host0:4000 -advertise hostN:4100 -capacity 4294967296 \
//	         -data-dir /var/lib/blob/pages -disk-cache 268435456
//
// Clients connect with blob.Options{Network: blob.TCP, VManagerAddr:
// "host1:4001", PManagerAddr: "host0:4000", MetaDirAddr: "host0:4000"}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blob/internal/erasure"
	"blob/internal/node"
	"blob/internal/pmanager"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

func main() {
	cfg, listen, admin, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatalf("listen %s: %v", listen, err)
	}
	cfg.Listener = l
	if admin != "" {
		cfg.Metrics = stats.NewRegistry()
		registerRPCMetrics(cfg.Metrics)
	}
	n, err := node.Start(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (advertised as %s)", listen, cfg.Advertise)
	if admin != "" {
		startAdmin(admin, cfg.Metrics, n.Monitor(), n.Ready)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	n.Close()
}

// parseFlags maps the command line onto a node configuration (without
// its Listener and Metrics, which main creates) plus the -listen and
// -admin addresses. Start validates the cross-flag rules.
func parseFlags(fs *flag.FlagSet, args []string) (cfg node.Config, listen, admin string, err error) {
	cfg = node.Config{Network: rpc.TCP{}, Logf: log.Printf, Breakers: true}
	fs.StringVar(&listen, "listen", ":4000", "address to listen on")
	fs.StringVar(&cfg.Advertise, "advertise", "", "address other nodes reach this node at (default: -listen)")
	roles := fs.String("roles", "", "comma-separated roles: vmanager,pmanager,provider,metadata")
	fs.StringVar(&cfg.PM, "pm", "", "provider manager / metadata directory address (for provider, metadata and vmanager roles)")
	fs.Int64Var(&cfg.Capacity, "capacity", 0, "data provider page capacity in bytes (0 = unlimited)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "data provider persistence directory (empty = RAM-only, the paper's mode)")
	fs.Int64Var(&cfg.SegmentSize, "segment-size", 0, "segment file size for -data-dir in bytes (0 = 4 MiB default)")
	fs.Int64Var(&cfg.DiskCache, "disk-cache", 0, "write-through RAM cache in front of -data-dir, in bytes (0 disables)")
	fs.DurationVar(&cfg.CompactEvery, "compact-interval", time.Minute, "segment compaction period for -data-dir (0 disables)")
	fs.Int64Var(&cfg.CompactRate, "compact-rate", 0, "compaction I/O throttle for -data-dir in bytes/sec (0 = unthrottled)")
	fs.BoolVar(&cfg.SyncWrites, "sync-writes", false, "fsync every page append to -data-dir")
	fs.DurationVar(&cfg.RepairTimeout, "repair", 30*time.Second, "version manager dead-writer repair timeout (0 disables)")
	fs.IntVar(&cfg.VShards, "vshards", 1, "total version-manager shard count of the deployment (vmanager role)")
	fs.IntVar(&cfg.VShard, "vshard", 0, "this node's version-manager shard index (vmanager role with -vpeers)")
	fs.IntVar(&cfg.VReplica, "vreplica", 0, "this node's replica index within its shard (vmanager role with -vpeers)")
	vpeers := fs.String("vpeers", "", "comma-separated replica addresses of this shard, including this node; enables replicated vmanager mode (docs/vmanager-group.md)")
	fs.BoolVar(&cfg.VRejoin, "vrejoin", false, "this replica is restarting after a crash: boot as a follower and catch up from the incumbent leader")
	fs.DurationVar(&cfg.VMHeartbeat, "vheartbeat", 500*time.Millisecond, "shard leader idle append interval (replicated vmanager mode)")
	fs.DurationVar(&cfg.VMElection, "velection", 0, "follower silence before campaigning (0 = 10x -vheartbeat)")
	fs.Int64Var(&cfg.RepairRate, "repair-rate", 0, "replica repair pull throttle in bytes/sec (0 = unthrottled; provider role)")
	fs.DurationVar(&cfg.RepairInterval, "repair-interval", time.Minute, "replica repair sweep period (repairer role)")
	vm := fs.String("vm", "", `version manager address, or a shard group "a,b;c,d" (repairer role)`)
	fs.DurationVar(&cfg.Heartbeat, "heartbeat", 5*time.Second, "data provider heartbeat interval (0 disables heartbeats and the provider manager's liveness filter)")
	strategy := fs.String("strategy", "round-robin", "placement strategy: round-robin|least-loaded|power-of-two")
	redundancy := fs.String("redundancy", "replicate", `advertised redundancy mode: "replicate" or "rs(k,m)" (pmanager role; clients adopt it for new blobs)`)
	fs.StringVar(&cfg.Checkpoint, "checkpoint", "", "version manager checkpoint file (loaded on start, saved periodically and on shutdown)")
	fs.DurationVar(&cfg.CheckpointEvery, "checkpoint-interval", time.Minute, "periodic checkpoint interval")
	fs.StringVar(&admin, "admin", "", "admin HTTP listen address serving /metrics, /healthz and /debug/pprof (empty disables)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", 0, "record spans for 1-in-N root operations (0 disables tracing, 1 traces everything)")
	fs.IntVar(&cfg.TraceRing, "trace-ring", trace.DefaultRing, "span ring buffer capacity (spans kept per process)")
	fs.DurationVar(&cfg.SlowThreshold, "slow-threshold", 0, "log the span tree of client operations slower than this (repairer role; 0 disables)")
	fs.IntVar(&cfg.EventRing, "event-ring", 0, "cluster event journal ring capacity (0 = default, negative disables)")
	fs.DurationVar(&cfg.ChaosDelay, "chaos-delay", 0, "gray-failure injection: hold every page serve this long (provider role; change live with blobctl chaos)")
	fs.BoolVar(&cfg.ChaosStall, "chaos-stall", false, "gray-failure injection: stall page serves outright until healed via blobctl chaos (provider role)")
	fs.DurationVar(&cfg.Poll, "poll", time.Second, "cluster poll interval (monitor role)")
	watchVM := fs.String("watch-vm", "", `version-manager shards the monitor polls: replica addresses comma-separated within a shard, shards separated by ";" (monitor role)`)
	watchEvs := fs.String("watch-events", "", "comma-separated extra addresses the monitor tails MEvents from, e.g. the repairer node (monitor role)")
	if err = fs.Parse(args); err != nil {
		return cfg, "", "", err
	}

	if *roles == "" {
		return cfg, "", "", errors.New("at least one -roles value is required")
	}
	cfg.Roles = splitList(*roles)
	if cfg.Advertise == "" {
		cfg.Advertise = listen
	}
	cfg.VPeers = splitList(*vpeers)
	cfg.WatchEvents = splitList(*watchEvs)
	if cfg.Redundancy, err = erasure.ParseRedundancy(*redundancy); err != nil {
		return cfg, "", "", fmt.Errorf("-redundancy: %w", err)
	}
	if cfg.Strategy, err = pmanager.ParseStrategy(*strategy); err != nil {
		return cfg, "", "", fmt.Errorf("-strategy: %w", err)
	}
	if *vm != "" {
		if cfg.VM, err = vmanager.ParseGroupAddrs(*vm); err != nil {
			return cfg, "", "", fmt.Errorf("-vm: %w", err)
		}
	}
	if *watchVM != "" {
		if cfg.WatchVM, err = vmanager.ParseGroupAddrs(*watchVM); err != nil {
			return cfg, "", "", fmt.Errorf("-watch-vm: %w", err)
		}
	}
	return cfg, listen, admin, nil
}

// splitList splits a comma-separated flag value, dropping blank entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}
