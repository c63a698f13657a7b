// Recovery, in two acts.
//
// Act 1 — protocol recovery (in-memory, the paper's crash-stop model): a
// replica crashes mid-run; the Ω failure detector settles on a new shard
// leader, the recovery protocol (Algorithm 4) takes over pending
// commands, and the system keeps serving clients at the surviving sites
// — no reconfiguration needed, f=1 of 5 replicas lost.
//
// Act 2 — crash-restart recovery (real TCP cluster, durable nodes): the
// same scenario the tempo-server -data-dir flag exists for. A
// three-replica cluster persists every applied command to a write-ahead
// log with periodic kvstore snapshots; one replica goes down after
// acknowledging writes, comes back on the same data directory, replays
// snapshot+WAL, catches up from its peers, and serves linearizable
// reads of everything — including writes acknowledged while it was
// down.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/testnet"
	"tempo/internal/topology"
)

func main() {
	inMemoryRecovery()
	durableRestart()
}

// inMemoryRecovery is Act 1: Algorithm 4 across five in-process
// replicas, driven by the deterministic message pump of
// internal/testnet.
func inMemoryRecovery() {
	topo := topology.EC2(1)
	procs := make(map[ids.ProcessID]*tempo.Process)
	var reps []proto.Replica
	for _, pi := range topo.Processes() {
		p := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: 5 * time.Millisecond,
			RecoveryTimeout: 20 * time.Millisecond,
		})
		procs[pi.ID] = p
		reps = append(reps, p)
	}
	net := testnet.New(reps...)
	// execute submits ops at a site's replica and pumps messages and
	// ticks until that replica executes the command.
	execute := func(site ids.SiteID, ops ...command.Op) *command.Result {
		at := topo.ProcessAt(site, 0)
		cmd := command.New(procs[at].NextID(), ops...)
		net.Submit(at, cmd)
		for i := 0; i < 1000; i++ {
			net.Drain(0)
			for _, e := range net.DrainExecuted()[at] {
				if e.Cmd.ID == cmd.ID {
					return e.Result
				}
			}
			net.Tick(2 * time.Millisecond)
		}
		log.Fatalf("command %v did not execute (crashed quorum?)", cmd.ID)
		return nil
	}
	put := func(site ids.SiteID, key, value string) {
		execute(site, command.Op{Kind: command.Put, Key: command.Key(key), Value: []byte(value)})
	}
	const ireland, canada, saoPaulo = 0, 3, 4

	put(canada, "ledger", "v1")
	fmt.Println("wrote ledger=v1 via canada")

	// Ireland (rank 1, the default Ω choice) fail-stops.
	net.Crash(topo.ProcessAt(ireland, 0))
	fmt.Println("ireland crashed")

	// Ω nominates rank 2 (N. California); pending commands coordinated
	// by Ireland are recovered with their original timestamps
	// (Properties 1 and 4 of the paper).
	net.SetLeader(2)
	net.Settle(10, 20*time.Millisecond)

	// The system remains available for reads and writes.
	put(canada, "ledger", "v2")
	res := execute(saoPaulo, command.Op{Kind: command.Get, Key: "ledger"})
	fmt.Printf("after crash+recovery: ledger=%s (read via s.paulo)\n", res.Values[0])
}

// durableRestart is Act 2: a real TCP cluster whose nodes persist to
// data directories (the in-process equivalent of running each replica
// as `tempo-server -data-dir ...`), with one replica taken down and
// restarted in place.
func durableRestart() {
	const r = 3
	names := make([]string, r)
	rtt := make([][]time.Duration, r)
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
		rtt[i] = make([]time.Duration, r)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: 1, F: 1})
	if err != nil {
		log.Fatal(err)
	}

	base, err := os.MkdirTemp("", "tempo-recovery-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	addrs := make(map[ids.ProcessID]string)
	lns := make(map[ids.ProcessID]net.Listener)
	for _, pi := range topo.Processes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[pi.ID] = ln
		addrs[pi.ID] = ln.Addr().String()
	}
	startNode := func(id ids.ProcessID, ln net.Listener) *cluster.Node {
		rep := tempo.New(id, topo, tempo.Config{PromiseInterval: 2 * time.Millisecond})
		n := cluster.NewNode(id, rep, addrs)
		if err := n.SetDurable(cluster.DurableConfig{
			Dir: filepath.Join(base, fmt.Sprintf("node-%d", id)),
		}); err != nil {
			log.Fatal(err)
		}
		if ln != nil {
			err = n.StartListener(ln)
		} else {
			err = n.Start()
		}
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	nodes := make(map[ids.ProcessID]*cluster.Node)
	for _, pi := range topo.Processes() {
		nodes[pi.ID] = startNode(pi.ID, lns[pi.ID])
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	fmt.Println("\ndurable TCP cluster up (3 replicas, WAL+snapshots)")

	ctx := context.Background()
	sess, err := client.Dial(addrs[1], addrs[2], addrs[3])
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	if err := sess.Put(ctx, "account", []byte("balance=100")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote account=balance=100")
	time.Sleep(50 * time.Millisecond) // let replica 3 apply+log the write

	// Replica 3 goes down (a SIGKILL'd tempo-server; see
	// docs/OPERATIONS.md for the runbook with real processes).
	nodes[3].Close()
	fmt.Println("replica 3 down")

	// The cluster still serves (f=1): a write lands during the outage.
	if err := sess.Put(ctx, "account", []byte("balance=250")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote account=balance=250 during the outage")

	// Replica 3 restarts on its data directory: WAL replay restores the
	// pre-crash state, the peer sync fetches what it missed, and the
	// node serves again.
	nodes[3] = startNode(3, nil)
	fmt.Println("replica 3 restarted on its data directory")

	probe, err := client.New(client.Config{Addrs: map[ids.ProcessID]string{3: addrs[3]}})
	if err != nil {
		log.Fatal(err)
	}
	defer probe.Close()
	v, err := probe.Get(ctx, "account")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restart: account=%s (read via the restarted replica)\n", v)
}
