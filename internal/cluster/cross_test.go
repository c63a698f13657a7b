package cluster

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/topology"
)

// startShardedNodes boots a sites x shards cluster, one node (own
// listener) per process, and returns the nodes indexed by process id.
func startShardedNodes(t *testing.T, sites, shards int) (map[ids.ProcessID]*Node, map[ids.ProcessID]string, *topology.Topology) {
	t.Helper()
	names := make([]string, sites)
	rtt := make([][]time.Duration, sites)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		rtt[i] = make([]time.Duration, sites)
	}
	topo, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: shards, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[ids.ProcessID]string)
	lns := make(map[ids.ProcessID]net.Listener)
	for _, pi := range topo.Processes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[pi.ID] = ln
		addrs[pi.ID] = ln.Addr().String()
	}
	nodes := make(map[ids.ProcessID]*Node)
	for _, pi := range topo.Processes() {
		rep := tempo.New(pi.ID, topo, tempo.Config{
			PromiseInterval: 2 * time.Millisecond,
			RecoveryTimeout: time.Hour,
		})
		n := NewNode(pi.ID, rep, addrs)
		if err := n.StartListener(lns[pi.ID]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[pi.ID] = n
	}
	return nodes, addrs, topo
}

func shardedKey(t *testing.T, topo *topology.Topology, shard ids.ShardID, tag string) command.Key {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := command.Key(fmt.Sprintf("%s-%d", tag, i))
		if topo.ShardOf(k) == shard {
			return k
		}
	}
	t.Fatalf("no key on shard %d", shard)
	return ""
}

// TestWatchAfterExecutionParked covers the watch-loses-the-race path: a
// cross-shard command fully executes before any watch reaches the
// sibling shard's replica; the late watch must still be answered, from
// the parked-results buffer. No client ever watches the gateway's shard,
// so none of its replicas may park the result.
func TestWatchAfterExecutionParked(t *testing.T) {
	nodes, _, topo := startShardedNodes(t, 3, 2)
	gateway := nodes[topo.ProcessAt(0, 0)] // shard 0 at site 0
	sibling := nodes[topo.ProcessAt(0, 1)] // shard 1 at site 0

	k0 := shardedKey(t, topo, 0, "pk0")
	k1 := shardedKey(t, topo, 1, "pk1")
	id := gateway.mintBlock(1)

	// Submit cross-shard via the gateway.
	w, br := pipeWaiter(t, time.Time{})
	gateway.submitCmdAt(id, w, []command.Op{
		{Kind: command.Put, Key: k0, Value: []byte("v0")},
		{Kind: command.Put, Key: k1, Value: []byte("v1")},
		{Kind: command.Get, Key: k1},
	})
	_, werr, vals := readReply(t, br)
	if werr.Code != command.ErrCodeNone {
		t.Fatalf("gateway reply: %+v", werr)
	}
	// The gateway serves shard 0: exactly the k0 put's nil result.
	if len(vals) != 1 {
		t.Fatalf("gateway returned %d values, want 1 (its own shard's segment)", len(vals))
	}

	// Wait until the sibling replica executed and parked the result (no
	// watcher was registered there).
	deadline := time.Now().Add(10 * time.Second)
	for {
		sibling.waitMu.Lock()
		_, parked := sibling.parked[id]
		sibling.waitMu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result never parked at the sibling shard's replica")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A second command on the gateway's shard: a replica's executor is
	// done with the cross-shard command once it has applied this one too.
	sw, sbr := pipeWaiter(t, time.Time{})
	gateway.submit(sw, []command.Op{{Kind: command.Put, Key: k0, Value: []byte("v2")}})
	if _, werr, _ := readReply(t, sbr); werr.Code != command.ErrCodeNone {
		t.Fatalf("single-shard reply: %+v", werr)
	}
	for _, pid := range topo.ShardProcesses(0) {
		n := nodes[pid]
		for n.Stats().AppliedCmds < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("process %d applied %d commands, want 2", pid, n.Stats().AppliedCmds)
			}
			time.Sleep(2 * time.Millisecond)
		}
		n.waitMu.Lock()
		parked := len(n.parked)
		n.waitMu.Unlock()
		if parked != 0 {
			t.Errorf("process %d of the gateway's shard parked %d results nobody can watch", pid, parked)
		}
	}

	// The late watch completes immediately from the parked buffer with
	// shard 1's segment: the k1 put (nil) and the k1 get ("v1").
	lw, lbr := pipeWaiter(t, time.Time{})
	sibling.watch(lw, id)
	_, werr, vals = readReply(t, lbr)
	if werr.Code != command.ErrCodeNone {
		t.Fatalf("late watch reply: %+v", werr)
	}
	if len(vals) != 2 || vals[0] != nil || string(vals[1]) != "v1" {
		t.Fatalf("late watch values = %q, want [nil, v1]", vals)
	}
	// The parked entry is consumed: a second watch would wait for a
	// (never-coming) re-execution instead of double-delivering.
	sibling.waitMu.Lock()
	_, still := sibling.parked[id]
	sibling.waitMu.Unlock()
	if still {
		t.Fatal("parked result not consumed by the watch")
	}
}

// TestSubmitAtDuplicateSubmitsOnce pins the client-retry guard: a
// second cross-shard submission under the same id registers its waiter
// but must not hand the command to the replica again.
func TestSubmitAtDuplicateSubmitsOnce(t *testing.T) {
	nodes, _, topo := startShardedNodes(t, 3, 2)
	gateway := nodes[topo.ProcessAt(0, 0)]
	k0 := shardedKey(t, topo, 0, "dup0")
	k1 := shardedKey(t, topo, 1, "dup1")
	id := gateway.mintBlock(1)
	ops := []command.Op{
		{Kind: command.Put, Key: k0, Value: []byte("v")},
		{Kind: command.Put, Key: k1, Value: []byte("v")},
	}
	w1, br1 := pipeWaiter(t, time.Time{})
	w2, br2 := pipeWaiter(t, time.Time{})
	gateway.submitCmdAt(id, w1, ops)
	gateway.submitCmdAt(id, w2, ops) // retry: same id
	for i, br := range []*bufio.Reader{br1, br2} {
		if _, werr, _ := readReply(t, br); werr.Code != command.ErrCodeNone {
			t.Fatalf("waiter %d: %+v", i, werr)
		}
	}
	if got := gateway.Stats().CrossSubmitted; got != 1 {
		t.Fatalf("command handed to the replica %d times, want 1", got)
	}
}

// dialV2 opens a raw client connection.
func dialV2(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := dialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.conn, c.br
}

func readReply(t *testing.T, br *bufio.Reader) (uint64, command.WireError, [][]byte) {
	t.Helper()
	var buf []byte
	body, err := ReadFrame(br, MaxClientFrameBytes, &buf)
	if err != nil {
		t.Fatal(err)
	}
	reqID, werr, values, err := DecodeClientReply(body)
	if err != nil {
		t.Fatal(err)
	}
	return reqID, werr, values
}

// TestV2SubmitRejectsCrossAndForeignShards pins the typed errors of the
// version-2 plain submission: ops spanning shards are refused (the
// batcher bypass must be explicit, via submit-at), and ops of a shard
// the process does not replicate come back as wrong-shard.
func TestV2SubmitRejectsCrossAndForeignShards(t *testing.T) {
	nodes, addrs, topo := startShardedNodes(t, 3, 2)
	_ = nodes
	gatewayPid := topo.ProcessAt(0, 0)
	conn, br := dialV2(t, addrs[gatewayPid])

	k0 := shardedKey(t, topo, 0, "vr0")
	k1 := shardedKey(t, topo, 1, "vr1")

	var scratch []byte
	frame := AppendSubmitRequest(nil, &scratch, 1, time.Second, []command.Op{
		{Kind: command.Put, Key: k0, Value: []byte("a")},
		{Kind: command.Put, Key: k1, Value: []byte("b")},
	})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, werr, _ := readReply(t, br); werr.Code != command.ErrCodeCrossShard {
		t.Fatalf("cross-shard plain submit: code %d, want ErrCodeCrossShard", werr.Code)
	}

	frame = AppendSubmitRequest(nil, &scratch, 2, time.Second, []command.Op{
		{Kind: command.Get, Key: k1},
	})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, werr, _ := readReply(t, br); werr.Code != command.ErrCodeWrongShard {
		t.Fatalf("foreign-shard submit: code %d, want ErrCodeWrongShard", werr.Code)
	}

	// A watch for a foreign shard is refused the same way.
	frame = AppendWatchRequest(nil, &scratch, 3, time.Second, 1, ids.Dot{Source: 1, Seq: 99})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, werr, _ := readReply(t, br); werr.Code != command.ErrCodeWrongShard {
		t.Fatalf("foreign-shard watch: code %d, want ErrCodeWrongShard", werr.Code)
	}
}

// TestMintBlockAdvancesSequence checks mint blocks are disjoint and
// contiguous, and that minted ids never collide with server-minted ones.
func TestMintBlockAdvancesSequence(t *testing.T) {
	nodes, _, topo := startShardedNodes(t, 3, 1)
	n := nodes[topo.ProcessAt(0, 0)]
	a := n.mintBlock(16)
	b := n.mintBlock(16)
	if a.Source != n.id || b.Source != n.id {
		t.Fatalf("mint sources = %v/%v, want %v", a.Source, b.Source, n.id)
	}
	if b.Seq < a.Seq+16 {
		t.Fatalf("blocks overlap: a=%d..%d b=%d", a.Seq, a.Seq+15, b.Seq)
	}
	// A subsequent server-minted id lands above both blocks.
	n.mu.Lock()
	next := n.rep.NextID()
	n.mu.Unlock()
	if next.Seq < b.Seq+16 {
		t.Fatalf("server mint %d inside client block %d..%d", next.Seq, b.Seq, b.Seq+15)
	}
}

// FuzzShardMsgRoundTrip covers the cross-shard wire surfaces added for
// sharded deployments: the kind-tagged version-2 client request frames
// (submit, mint, submit-at, watch) and the (from, to)-multiplexed group
// frame records carrying cross-shard protocol messages (MStable/MBump).
// It checks encode->decode is the identity and that decoding arbitrary
// bytes never panics.
func FuzzShardMsgRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), int64(1000), uint32(0), uint64(7), uint64(3), []byte("key"), []byte("val"), false)
	f.Add(uint8(2), uint64(2), int64(0), uint32(1), uint64(1), uint64(128), []byte(""), []byte(""), true)
	f.Add(uint8(3), uint64(9), int64(5000), uint32(3), uint64(2), uint64(11), []byte("k2"), []byte{0xFF, 0}, false)
	f.Add(uint8(4), uint64(1<<40), int64(1), uint32(7), uint64(1<<30), uint64(1<<20), []byte("x"), []byte("y"), true)
	f.Fuzz(func(t *testing.T, kind uint8, reqID uint64, deadlineUS int64, shard uint32,
		src, seq uint64, key, val []byte, getOp bool) {
		if deadlineUS < 0 {
			deadlineUS = -deadlineUS
		}
		deadline := time.Duration(deadlineUS) * time.Microsecond
		id := ids.Dot{Source: ids.ProcessID(src), Seq: seq}
		op := command.Op{Kind: command.Put, Key: command.Key(key), Value: val}
		if getOp {
			op = command.Op{Kind: command.Get, Key: command.Key(key)}
		}
		ops := []command.Op{op}

		var scratch []byte
		var frame []byte
		k := 1 + kind%4
		switch k {
		case ReqSubmit:
			frame = AppendSubmitRequest(nil, &scratch, reqID, deadline, ops)
		case ReqMint:
			count := int(seq%MaxMintBlock) + 1
			frame = AppendMintRequest(nil, &scratch, reqID, count)
		case ReqSubmitAt:
			frame = AppendSubmitAtRequest(nil, &scratch, reqID, deadline, ids.ShardID(shard), id, ops)
		case ReqWatch:
			frame = AppendWatchRequest(nil, &scratch, reqID, deadline, ids.ShardID(shard), id)
		}
		// Strip the length prefix, decode the body, compare.
		length, body, err := proto.ReadUvarint(frame)
		if err != nil || length != uint64(len(body)) {
			t.Fatalf("bad frame length: %v", err)
		}
		req, err := DecodeClientRequest2(body)
		if err != nil {
			t.Fatalf("decode own encoding (kind %d): %v", k, err)
		}
		if req.Kind != k || req.ReqID != reqID {
			t.Fatalf("kind/reqID mismatch: %v/%v", req.Kind, req.ReqID)
		}
		switch k {
		case ReqSubmit, ReqSubmitAt:
			if req.Deadline != deadline {
				t.Fatalf("deadline %v != %v", req.Deadline, deadline)
			}
			if !reflect.DeepEqual(normalizeOps(req.Ops), normalizeOps(ops)) {
				t.Fatalf("ops %+v != %+v", req.Ops, ops)
			}
		}
		if k == ReqSubmitAt || k == ReqWatch {
			if req.Shard != ids.ShardID(shard) || req.ID != id {
				t.Fatalf("shard/id mismatch: %v/%v", req.Shard, req.ID)
			}
		}

		// Arbitrary bytes must fail cleanly, never panic.
		if _, err := DecodeClientRequest2(key); err != nil {
			_ = err
		}
		if _, err := DecodeClientRequest2(val); err != nil {
			_ = err
		}

		// Group frame records: two cross-shard protocol messages between
		// fuzzed process pairs, encoded as one frame, decoded back.
		msgs := []groupMsg{
			{from: ids.ProcessID(src%1024 + 1), to: ids.ProcessID(seq%1024 + 1),
				msg: &tempo.MStable{ID: id, Shard: ids.ShardID(shard)}},
			{from: ids.ProcessID(seq%1024 + 1), to: ids.ProcessID(src%1024 + 1),
				msg: &tempo.MBump{ID: id, TS: reqID}},
		}
		var rec []byte
		for _, m := range msgs {
			rec = proto.AppendUvarint(rec, uint64(m.from))
			rec = proto.AppendUvarint(rec, uint64(m.to))
			if rec, err = proto.AppendMessage(rec, m.msg); err != nil {
				t.Fatalf("append group record: %v", err)
			}
		}
		b := rec
		for i := 0; len(b) > 0; i++ {
			var from, to uint64
			if from, b, err = proto.ReadUvarint(b); err != nil {
				t.Fatalf("record %d from: %v", i, err)
			}
			if to, b, err = proto.ReadUvarint(b); err != nil {
				t.Fatalf("record %d to: %v", i, err)
			}
			var msg proto.Message
			if msg, b, err = proto.DecodeMessage(b); err != nil {
				t.Fatalf("record %d msg: %v", i, err)
			}
			if i >= len(msgs) {
				t.Fatalf("decoded %d records, want %d", i+1, len(msgs))
			}
			want := msgs[i]
			if ids.ProcessID(from) != want.from || ids.ProcessID(to) != want.to {
				t.Fatalf("record %d addressing mismatch", i)
			}
			if !reflect.DeepEqual(msg, want.msg) {
				t.Fatalf("record %d message mismatch: %+v != %+v", i, msg, want.msg)
			}
		}
	})
}

// normalizeOps maps empty and nil byte slices together for comparison
// (the wire does not distinguish them for keys/op values).
func normalizeOps(ops []command.Op) []command.Op {
	out := make([]command.Op, len(ops))
	for i, op := range ops {
		out[i] = op
		if len(op.Value) == 0 {
			out[i].Value = nil
		}
	}
	return out
}
