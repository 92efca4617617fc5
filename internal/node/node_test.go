package node_test

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"blob/internal/core"
	"blob/internal/events"
	"blob/internal/node"
	"blob/internal/rpc"
)

// listen binds a loopback listener, skipping the test where loopback
// TCP is unavailable.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	return l
}

// start boots a node on l over real TCP and closes it at test end.
func start(t *testing.T, l net.Listener, cfg node.Config) *node.Node {
	t.Helper()
	cfg.Listener, cfg.Network, cfg.Advertise = l, rpc.TCP{}, l.Addr().String()
	n, err := node.Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestRealTCPDeployment boots the paper's topology over genuine
// loopback sockets through node.Start — the path cmd/blobnode takes —
// and runs a full write/read/append round trip: a provider manager, a
// 1-shard x 2-replica version-manager group, three provider+metadata
// storage nodes and a repairer sweeping the group.
func TestRealTCPDeployment(t *testing.T) {
	pmL := listen(t)
	pmAddr := pmL.Addr().String()
	start(t, pmL, node.Config{Roles: []string{node.PManager}})

	// Replica addresses must be bound before any replica boots: peers
	// are known up front, as -vpeers requires.
	vmL := []net.Listener{listen(t), listen(t)}
	peers := []string{vmL[0].Addr().String(), vmL[1].Addr().String()}
	for j, l := range vmL {
		start(t, l, node.Config{
			Roles: []string{node.VManager}, PM: pmAddr, RepairTimeout: time.Second,
			VPeers: peers, VShards: 1, VReplica: j,
			VMHeartbeat: 5 * time.Millisecond, VMElection: 40 * time.Millisecond,
		})
	}
	for i := 0; i < 3; i++ {
		start(t, listen(t), node.Config{Roles: []string{node.Provider, node.Metadata}, PM: pmAddr})
	}
	group := [][]string{peers}
	repairer := start(t, listen(t), node.Config{
		Roles: []string{node.Repairer}, PM: pmAddr, VM: group,
		RepairInterval: 20 * time.Millisecond, Breakers: true,
	})

	ctx := context.Background()
	client, err := core.NewClient(ctx, core.Options{
		Network:        rpc.TCP{},
		VManagerShards: group,
		PManagerAddr:   pmAddr,
		MetaDirAddr:    pmAddr,
		CacheNodes:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const page = 4 << 10
	b, err := client.CreateBlob(ctx, page, 64*page)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA5}, 4*page)
	v, err := b.Write(ctx, data, 8*page)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*page)
	if _, err := b.Read(ctx, got, 8*page, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP round trip corrupted data")
	}

	// Append and a second client.
	if _, _, err := b.Append(ctx, data[:page]); err != nil {
		t.Fatal(err)
	}
	c2, err := core.NewClient(ctx, core.Options{
		Network:        rpc.TCP{},
		VManagerShards: group,
		PManagerAddr:   pmAddr,
		MetaDirAddr:    pmAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	latest, size, err := b2.Latest(ctx)
	if err != nil || latest != 2 {
		t.Fatalf("latest over TCP = v%d size %d err %v", latest, size, err)
	}
	small := make([]byte, page)
	if _, err := b2.Read(ctx, small, 8*page, latest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, data[:page]) {
		t.Fatal("cross-client TCP read mismatch")
	}

	// The repairer sweeps the blob through the group and journals the
	// sweep's end.
	deadline := time.Now().Add(10 * time.Second)
	for !hasEvent(repairer.Journal(), events.RepairFinish) {
		if time.Now().After(deadline) {
			t.Fatalf("repairer journaled no repair-finish: %v", repairer.Journal().Events())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hasEvent(j *events.Journal, typ events.Type) bool {
	for _, e := range j.Events() {
		if e.Type == typ {
			return true
		}
	}
	return false
}

// TestZeroHeartbeatDisablesLiveness pins Heartbeat 0 (blobnode
// -heartbeat 0): no heartbeat loop on the provider and no liveness
// filter at the provider manager, so a provider that never beats stays
// allocatable and no death is journaled.
func TestZeroHeartbeatDisablesLiveness(t *testing.T) {
	pmL := listen(t)
	pmAddr := pmL.Addr().String()
	pm := start(t, pmL, node.Config{Roles: []string{node.PManager}})
	start(t, listen(t), node.Config{Roles: []string{node.Provider, node.Metadata}, PM: pmAddr})
	vmL := listen(t)
	start(t, vmL, node.Config{Roles: []string{node.VManager}})

	ctx := context.Background()
	c, err := core.NewClient(ctx, core.Options{
		Network: rpc.TCP{}, VManagerAddr: vmL.Addr().String(), PManagerAddr: pmAddr, MetaDirAddr: pmAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := c.CreateBlob(ctx, 4<<10, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, make([]byte, 4<<10), 0); err != nil {
		t.Fatalf("write with heartbeats off: %v", err)
	}
	if hasEvent(pm.Journal(), events.HeartbeatDeath) {
		t.Fatal("heartbeat death journaled with heartbeats off")
	}
}

// TestStartRejectsBadConfig pins that validation fails before anything
// starts, and that a failed Start releases the listener.
func TestStartRejectsBadConfig(t *testing.T) {
	l := listen(t)
	_, err := node.Start(context.Background(), node.Config{
		Roles: []string{node.Provider}, PM: "pm:1", Heartbeat: -time.Second, Listener: l,
	})
	if err == nil || !strings.Contains(err.Error(), "negative heartbeat") {
		t.Fatalf("Start = %v, want negative heartbeat error", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener still open after failed Start")
	}
}
