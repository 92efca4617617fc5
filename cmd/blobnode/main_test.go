package main

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"blob/internal/node"
	"blob/internal/pmanager"
)

// parse runs blobnode's flag parsing on a private flag set.
func parse(args ...string) (node.Config, error) {
	fs := flag.NewFlagSet("blobnode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, _, err := parseFlags(fs, args)
	return cfg, err
}

// TestFlagsRejectBadValues pins that invalid flag values fail with an
// error — at parse time, or when node.Start validates the config —
// instead of panicking in a ticker or silently running a default.
func TestFlagsRejectBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-roles", "provider", "-pm", "pm:1", "-heartbeat", "-1s"}, "negative heartbeat"},
		{[]string{"-roles", "vmanager", "-repair", "0", "-checkpoint", "vm.ckpt", "-checkpoint-interval", "0"}, "checkpoint interval"},
		{[]string{"-roles", "vmanager", "-repair", "0", "-checkpoint", "vm.ckpt", "-checkpoint-interval", "-1m"}, "checkpoint interval"},
		{[]string{"-roles", "pmanager", "-strategy", "leastloaded"}, "unknown placement strategy"},
		{[]string{"-roles", "pmanager", "-strategy", "random"}, "unknown placement strategy"},
		{[]string{"-roles", "pmanager", "-redundancy", "rs(0,1)"}, "-redundancy"},
		{[]string{"-roles", "gateway"}, "unknown role"},
		{[]string{}, "-roles"},
		{[]string{"-roles", "provider"}, "-pm"},
		{[]string{"-roles", "repairer", "-pm", "pm:1"}, "-vm"},
		{[]string{"-roles", "repairer", "-pm", "pm:1", "-vm", "vm:1", "-repair-interval", "0"}, "-repair-interval"},
		{[]string{"-roles", "vmanager", "-repair", "0", "-vpeers", "a:1,b:1", "-vreplica", "2"}, "out of range"},
		{[]string{"-roles", "vmanager", "-repair", "0", "-vpeers", "a:1,b:1", "-checkpoint", "x"}, "incompatible"},
	} {
		cfg, err := parse(tc.args...)
		if err == nil {
			// Validation failures never touch the listener or network.
			_, err = node.Start(context.Background(), cfg)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

// TestFlagsMapOntoNodeConfig pins the accepted values, in particular
// -heartbeat 0 (no heartbeat loop and no liveness filter, like the
// harness's HeartbeatInterval: 0) and each strategy name.
func TestFlagsMapOntoNodeConfig(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		check func(node.Config) bool
	}{
		{[]string{"-roles", "provider,metadata", "-pm", "pm:1", "-heartbeat", "0"},
			func(c node.Config) bool { return c.Heartbeat == 0 && len(c.Roles) == 2 }},
		{[]string{"-roles", "pmanager"},
			func(c node.Config) bool { return c.Heartbeat == 5*time.Second && c.Strategy == pmanager.RoundRobin }},
		{[]string{"-roles", "pmanager", "-strategy", "least-loaded"},
			func(c node.Config) bool { return c.Strategy == pmanager.LeastLoaded }},
		{[]string{"-roles", "pmanager", "-strategy", "power-of-two"},
			func(c node.Config) bool { return c.Strategy == pmanager.PowerOfTwo }},
		{[]string{"-roles", "vmanager", "-checkpoint", "vm.ckpt"},
			func(c node.Config) bool { return c.CheckpointEvery == time.Minute }},
		{[]string{"-listen", "127.0.0.1:9", "-roles", " repairer ", "-pm", "pm:1", "-vm", "a:1,b:1;c:1"},
			func(c node.Config) bool {
				return c.Advertise == "127.0.0.1:9" && c.Roles[0] == node.Repairer &&
					len(c.VM) == 2 && len(c.VM[0]) == 2 && c.Breakers
			}},
	} {
		cfg, err := parse(tc.args...)
		if err != nil || !tc.check(cfg) {
			t.Errorf("%v: cfg %+v, err %v", tc.args, cfg, err)
		}
	}
}
