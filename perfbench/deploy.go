package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blob"
	"blob/internal/dht"
	"blob/internal/pmanager"
	"blob/internal/rpc"
	"blob/internal/vmanager"
)

// The deployment every workload runs on: one pmanager (which also hosts
// the metadata directory), a 1-shard 3-replica vmanager group, and six
// storage nodes each running a disk-backed provider with a RAM cache
// plus a metadata (DHT) store. Every node serves its admin plane.
const (
	pageSize     = 64 << 10
	segBytes     = 1 << 20
	segPages     = segBytes / pageSize
	capacity     = 1 << 40 // 2^24 pages: 24-level metadata trees
	diskCache    = 64 << 20
	storageNodes = 6
	vmReplicas   = 3
	bootTimeout  = 30 * time.Second
)

type node struct {
	name  string
	addr  string
	admin string
	log   string
	args  []string
	cmd   *exec.Cmd
	done  chan struct{}
}

// deployment is one running cluster of blobnode processes under dir.
type deployment struct {
	bin     string
	dir     string
	pm      string
	vms     []string
	storage []string
	nodes   []*node
	pool    *rpc.Pool
	http    *http.Client
}

// freePorts reserves n loopback ports by binding them all at once, so
// they are distinct, then releases them for the nodes to take.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// boot starts a fresh deployment under dir and waits until it is ready.
// A port taken between reservation and bind fails the boot; it is
// retried on new ports.
func boot(ctx context.Context, bin, dir string) (*deployment, error) {
	var err error
	for attempt := 1; attempt <= 3; attempt++ {
		var d *deployment
		d, err = bootOnce(ctx, bin, dir)
		if err == nil {
			return d, nil
		}
		if ctx.Err() != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: boot attempt %d failed: %v\n", attempt, err)
	}
	return nil, err
}

func bootOnce(ctx context.Context, bin, dir string) (*deployment, error) {
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return nil, err
	}
	addrs, err := freePorts(2 * (1 + vmReplicas + storageNodes))
	if err != nil {
		return nil, err
	}
	take := func() string { a := addrs[0]; addrs = addrs[1:]; return a }
	d := &deployment{
		bin:  bin,
		dir:  dir,
		pool: rpc.NewPool(rpc.TCP{}),
		http: &http.Client{Timeout: time.Second},
	}
	d.pm = take()
	for i := 0; i < vmReplicas; i++ {
		d.vms = append(d.vms, take())
	}
	for i := 0; i < storageNodes; i++ {
		d.storage = append(d.storage, take())
	}

	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	// The pmanager goes first: every other role dials it at start-up.
	if err := d.start("pmanager", d.pm, take(), "-roles", "pmanager"); err != nil {
		return fail(err)
	}
	if err := d.waitFor(ctx, func(cctx context.Context) (*node, error) {
		_, err := pmanager.FetchProviders(cctx, d.pool, d.pm)
		return d.nodes[0], err
	}); err != nil {
		return fail(err)
	}
	peers := strings.Join(d.vms, ",")
	for i, addr := range d.vms {
		if err := d.start(fmt.Sprintf("vmanager%d", i), addr, take(), "-roles", "vmanager", "-pm", d.pm,
			"-vshards", "1", "-vshard", "0", "-vreplica", strconv.Itoa(i), "-vpeers", peers); err != nil {
			return fail(err)
		}
	}
	for i, addr := range d.storage {
		if err := d.start(fmt.Sprintf("storage%d", i), addr, take(), "-roles", "provider,metadata", "-pm", d.pm,
			"-data-dir", filepath.Join(dir, "data", strconv.Itoa(i)), "-disk-cache", strconv.Itoa(diskCache)); err != nil {
			return fail(err)
		}
	}
	if err := d.waitFor(ctx, d.ready); err != nil {
		return fail(err)
	}
	return d, nil
}

func (d *deployment) start(name, addr, admin string, args ...string) error {
	args = append([]string{"-listen", addr, "-admin", admin}, args...)
	n := &node{name: name, addr: addr, admin: admin, args: args, done: make(chan struct{}),
		log: filepath.Join(d.dir, "logs", name+".log")}
	logf, err := os.Create(n.log)
	if err != nil {
		return err
	}
	defer logf.Close()
	n.cmd = exec.Command(d.bin, args...)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	// Own process group, so a terminal interrupt reaches only the
	// benchmark, which tears the cluster down; nodes die with it even
	// if it is killed outright.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	d.nodes = append(d.nodes, n)
	go func() {
		n.cmd.Wait()
		close(n.done)
	}()
	return nil
}

// waitFor polls check until it passes. A node that exits or a check
// that keeps failing past bootTimeout fails the boot with the tail of
// the log of the node at fault.
func (d *deployment) waitFor(ctx context.Context, check func(context.Context) (*node, error)) error {
	deadline := time.Now().Add(bootTimeout)
	for {
		for _, n := range d.nodes {
			select {
			case <-n.done:
				return fmt.Errorf("%s exited during boot (%s)\n%s", n.name, n.cmd.ProcessState, logTail(n.log))
			default:
			}
		}
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		n, err := check(cctx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v: %s: %v\n%s", bootTimeout, n.name, err, logTail(n.log))
		}
		time.Sleep(time.Millisecond) // a coarser poll would quantize setup_s
	}
}

// ready is the readiness contract: all six providers registered, all six
// metadata stores in the ring, one vmanager leader that every replica
// agrees on, and every node's admin /healthz answering 200.
func (d *deployment) ready(ctx context.Context) (*node, error) {
	pmNode := d.nodes[0]
	dir, err := pmanager.FetchProviders(ctx, d.pool, d.pm)
	if err != nil {
		return pmNode, err
	}
	var registered []string
	for _, p := range dir.Providers {
		registered = append(registered, p.Addr)
	}
	if n := d.missingStorage(registered); n != nil {
		return n, fmt.Errorf("%d of %d providers registered", len(registered), storageNodes)
	}
	ring, _, err := dht.FetchRing(ctx, d.pool, d.pm)
	if err != nil {
		return pmNode, err
	}
	var members []string
	for _, m := range ring.Nodes() {
		members = append(members, m.Addr)
	}
	if n := d.missingStorage(members); n != nil {
		return n, fmt.Errorf("%d of %d metadata stores in the ring", len(members), storageNodes)
	}
	leaders, agreed := 0, -1
	for i, addr := range d.vms {
		resp, err := d.pool.Call(ctx, addr, vmanager.MVmStatus, nil)
		if err != nil {
			return d.nodes[1+i], err
		}
		st, err := vmanager.DecodeReplicaStatus(resp)
		if err != nil {
			return d.nodes[1+i], err
		}
		if st.IsLeader {
			leaders++
		}
		if agreed >= 0 && st.Leader != agreed {
			return d.nodes[1+i], fmt.Errorf("replicas disagree on the leader (%d vs %d)", st.Leader, agreed)
		}
		agreed = st.Leader
	}
	if leaders != 1 {
		return d.nodes[1], fmt.Errorf("%d vmanager leaders", leaders)
	}
	for _, n := range d.nodes {
		if err := d.healthz(ctx, n); err != nil {
			return n, err
		}
	}
	return nil, nil
}

// missingStorage returns a storage node whose address is not in addrs.
func (d *deployment) missingStorage(addrs []string) *node {
	have := map[string]bool{}
	for _, a := range addrs {
		have[a] = true
	}
	for _, n := range d.nodes[1+vmReplicas:] {
		if !have[n.addr] {
			return n
		}
	}
	return nil
}

func (d *deployment) healthz(ctx context.Context, n *node) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.admin+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: %s", resp.Status)
	}
	return nil
}

// client connects a production-posture client (metadata cache at the
// paper's 2^20 nodes, hedged reads, circuit breakers) creating blobs in
// the given redundancy mode.
func (d *deployment) client(ctx context.Context, red blob.Redundancy) (*blob.Client, error) {
	return blob.NewClient(ctx, blob.Options{
		Network:        blob.TCP,
		VManagerShards: [][]string{d.vms},
		PManagerAddr:   d.pm,
		MetaDirAddr:    d.pm,
		DataReplicas:   2,
		Redundancy:     red,
		CacheNodes:     -1,
		Breakers:       true,
	})
}

// close kills every node, waits for each to exit and removes the
// deployment's directory.
func (d *deployment) close() {
	for _, n := range d.nodes {
		syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, n := range d.nodes {
		<-n.done
	}
	d.pool.Close()
	d.http.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// roleArgs returns one node's command line per role, for provenance.
func (d *deployment) roleArgs() map[string]string {
	out := map[string]string{}
	for _, n := range d.nodes {
		role := strings.TrimRight(n.name, "0123456789")
		if _, ok := out[role]; !ok {
			out[role] = strings.Join(n.args, " ")
		}
	}
	return out
}

func logTail(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > 20 {
			lines = lines[1:]
		}
	}
	return "--- tail of " + path + " ---\n" + strings.Join(lines, "\n")
}
