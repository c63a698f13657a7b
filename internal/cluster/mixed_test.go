package cluster_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/psmr"
	"tempo/internal/tempo"
)

// TestMixedStandaloneAndGroupDeployment runs one shard across two
// standalone nodes and one psmr site. There is one link format, so the
// three replicas commit together whoever coordinates, and a standalone
// node that lost its disk is healed by the psmr site's state snapshot.
func TestMixedStandaloneAndGroupDeployment(t *testing.T) {
	topo := flatTopo(t, 3, 1)
	tcfg := tempo.Config{PromiseInterval: 2 * time.Millisecond, RecoveryTimeout: 100 * time.Millisecond}
	base := t.TempDir()
	addrs := make(map[ids.ProcessID]string)
	siteAddrs := make(map[ids.SiteID]string)
	lns := make(map[ids.SiteID]net.Listener)
	for site := ids.SiteID(0); site < 3; site++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[site] = ln
		siteAddrs[site] = ln.Addr().String()
		addrs[topo.ProcessAt(site, 0)] = ln.Addr().String()
	}

	// Sites 0 and 1 are standalone durable nodes; the test keeps each
	// replica to look into its store. ln nil re-binds the node's fixed
	// address (the restart path), which can race the kernel's release of
	// the closed listener, so it retries briefly.
	var mu sync.Mutex
	nodes := make(map[ids.SiteID]*cluster.Node)
	reps := make(map[ids.SiteID]*tempo.Process)
	startNode := func(site ids.SiteID, ln net.Listener) error {
		pid := topo.ProcessAt(site, 0)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			rep := tempo.New(pid, topo, tcfg)
			n := cluster.NewNode(pid, rep, addrs)
			err := n.SetDurable(cluster.DurableConfig{Dir: filepath.Join(base, fmt.Sprintf("node-%d", pid))})
			if err != nil {
				return err
			}
			if ln != nil {
				err = n.StartListener(ln)
			} else {
				err = n.Start()
			}
			if err == nil {
				mu.Lock()
				nodes[site], reps[site] = n, rep
				mu.Unlock()
				return nil
			}
			if ln != nil || time.Now().After(deadline) {
				return err
			}
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	// Site 2 is a one-shard psmr group. The three start concurrently,
	// like real processes: each one's recovery asks the others for state.
	var group *psmr.Group
	started := make(chan error, 3)
	go func() { started <- startNode(0, lns[0]) }()
	go func() { started <- startNode(1, lns[1]) }()
	go func() {
		var err error
		group, err = psmr.StartListener(psmr.Config{
			Topo: topo, Site: 2, SiteAddrs: siteAddrs, Tempo: tcfg,
			DataDir: filepath.Join(base, "site-2"),
		}, lns[2])
		started <- err
	}()
	for i := 0; i < 3; i++ {
		if err := <-started; err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { group.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// via opens a session pinned to one replica, so each command below is
	// coordinated by the member it names.
	via := func(site ids.SiteID) *client.Session {
		t.Helper()
		pid := topo.ProcessAt(site, 0)
		s, err := client.New(client.Config{Addrs: map[ids.ProcessID]string{pid: addrs[pid]}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	readVia := func(key, want string, sites ...ids.SiteID) {
		t.Helper()
		for _, site := range sites {
			if v, err := via(site).Get(ctx, key); err != nil || string(v) != want {
				t.Fatalf("get %s via site %d = %q, %v; want %q", key, site, v, err, want)
			}
		}
	}
	inStore := func(site ids.SiteID, key, want string) bool {
		v, ok := reps[site].Store().Get(command.Key(key))
		return ok && string(v) == want
	}

	// Commit through a standalone node and through the group; each serves
	// the other's write back, and site 1 replicates both. (Site 1 itself
	// coordinates nothing yet: it is about to lose its disk, and with it
	// the id reservations that keep a restarted coordinator from reusing
	// command ids.)
	if err := via(0).Put(ctx, "from-node", []byte("n")); err != nil {
		t.Fatal(err)
	}
	if err := via(2).Put(ctx, "from-group", []byte("g")); err != nil {
		t.Fatal(err)
	}
	readVia("from-node", "n", 0, 2)
	readVia("from-group", "g", 0, 2)
	for deadline := time.Now().Add(5 * time.Second); !inStore(1, "from-node", "n") || !inStore(1, "from-group", "g"); {
		if time.Now().After(deadline) {
			t.Fatal("site 1 never applied the writes coordinated by sites 0 and 2")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Site 1 goes down and loses its disk; a write lands meanwhile. With
	// site 0 down too while it restarts, the only peer that can answer
	// its state-sync request is the psmr group.
	nodes[1].Close()
	if err := os.RemoveAll(filepath.Join(base, fmt.Sprintf("node-%d", topo.ProcessAt(1, 0)))); err != nil {
		t.Fatal(err)
	}
	if err := via(2).Put(ctx, "during-outage", []byte("o")); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	if err := startNode(1, nil); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"from-node": "n", "from-group": "g", "during-outage": "o"} {
		if !inStore(1, key, want) {
			t.Fatalf("restarted node's store lacks %s=%s: not healed by the group's snapshot", key, want)
		}
	}

	// Site 0 returns on its own disk (and syncs from both kinds of peer);
	// the deployment is whole again.
	if err := startNode(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := via(1).Put(ctx, "after-heal", []byte("h")); err != nil {
		t.Fatal(err)
	}
	readVia("after-heal", "h", 0, 1, 2)
	readVia("during-outage", "o", 0, 1, 2)
}
