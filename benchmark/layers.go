package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"runtime"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/kvstore"
	"tempo/internal/promise"
	"tempo/internal/proto"
	"tempo/internal/tempo"
	"tempo/internal/wal"
)

// Layer measurements: each times calls into one module's exported
// functions, on this workload's own operations, and involves no
// sockets. They run after the traced cluster run, which tells them how
// many client operations the batcher packed into one command and how
// fast commands arrived.

// layerOps is how many generated operations the layer loops consume.
const layerOps = 1 << 16

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// clientOps materializes operation seq of session 0 as the client
// would send it; each put gets its own value buffer.
func clientOps(in *Inputs, seq uint32) []command.Op {
	op := in.At(0, seq)
	kind, keys := command.Put, []uint32{op.A}
	if op.Get {
		kind = command.Get
	}
	if op.B != NoKey {
		keys = append(keys, op.B)
	}
	ops := make([]command.Op, len(keys))
	for i, k := range keys {
		ops[i] = command.Op{Kind: kind, Key: in.Keys[k]}
		if kind == command.Put {
			ops[i].Value = in.Value(make([]byte, len(in.Filler[0])), 0, seq)
		}
	}
	return ops
}

// measureClientCodec times the client's share of the wire: encoding a
// submit request and decoding its reply, per request.
func measureClientCodec(in *Inputs, out map[string]float64) error {
	const n = layerOps / 4
	reqs := make([][]command.Op, n)
	var frames, scratch []byte
	for i := range reqs {
		reqs[i] = clientOps(in, uint32(i))
		vals := make([][]byte, len(reqs[i]))
		for j, op := range reqs[i] {
			if op.Kind == command.Get {
				vals[j] = in.Filler[0] // a stored value of the workload's size
			}
		}
		frames = cluster.AppendClientReply(frames, &scratch, uint64(i), command.WireError{}, vals)
	}
	replies := make([][]byte, n)
	br := bufio.NewReader(bytes.NewReader(frames))
	for i := range replies {
		var buf []byte
		body, err := cluster.ReadFrame(br, cluster.MaxClientFrameBytes, &buf)
		if err != nil {
			return err
		}
		replies[i] = body
	}
	var wbuf []byte
	began := time.Now()
	for i := range reqs {
		wbuf = cluster.AppendSubmitRequest(wbuf[:0], &scratch, uint64(i), OpDeadline, reqs[i])
		if _, _, _, err := cluster.DecodeClientReply(replies[i]); err != nil {
			return err
		}
	}
	out["client.codec_ns_per_req"] = float64(time.Since(began).Nanoseconds()) / n
	return nil
}

// batchedCommands packs the workload's operations into commands the
// way the submit batcher does: perBatch single-shard operations of one
// shard per command, a cross-shard operation in a command of its own.
func batchedCommands(in *Inputs, perBatch, nOps int) (cmds [][]command.Op) {
	var open [2][]command.Op
	for seq := 0; seq < nOps; seq++ {
		o := clientOps(in, uint32(seq))
		if len(o) > 1 {
			cmds = append(cmds, o)
			continue
		}
		sh := in.Shard[in.At(0, uint32(seq)).A]
		open[sh] = append(open[sh], o[0])
		if len(open[sh]) >= perBatch {
			cmds = append(cmds, open[sh])
			open[sh] = nil
		}
	}
	for _, o := range open {
		if len(o) > 0 {
			cmds = append(cmds, o)
		}
	}
	return cmds
}

// sentMsg is one message the pump saw leave a replica, with how many
// remote peers it went to (each is one encode on the real transport).
type sentMsg struct {
	msg   proto.Message
	peers int
}

// measureTempo replays the workload's commands through the protocol
// alone: one tempo.Process per replica, pumped in memory through
// Submit/Handle/Tick/DrainStable on a virtual clock that advances by
// perCmd per command (the arrival rate the cluster run observed), with
// the shipped Config; commands are coordinated alternately at the two
// session homes. It returns the messages the measured part of the
// replay emitted and the ops that part carried, for the codec
// measurement.
func measureTempo(spec Spec, cmds [][]command.Op, perCmd time.Duration, out map[string]float64) ([]sentMsg, int) {
	topo := newTopology(spec.Shards)
	reps := make(map[ids.ProcessID]*tempo.Process)
	for _, pi := range topo.Processes() {
		p := tempo.New(pi.ID, topo, tempo.Config{})
		p.SetDeferredApply(true)
		reps[pi.ID] = p
	}
	type env struct {
		from, to ids.ProcessID
		msg      proto.Message
	}
	var queue []env
	var sent []sentMsg
	var msgs int
	keep := false
	push := func(from ids.ProcessID, acts []proto.Action) {
		for _, a := range acts {
			remote := 0
			for _, to := range a.To {
				queue = append(queue, env{from, to, a.Msg})
				if to != from {
					remote++
				}
			}
			msgs += remote
			if keep && remote > 0 {
				sent = append(sent, sentMsg{a.Msg, remote})
			}
		}
	}
	drain := func() {
		for i := 0; i < len(queue); i++ {
			e := queue[i]
			push(e.to, reps[e.to].Handle(e.from, e.msg))
			reps[e.to].DrainStable()
		}
		queue = queue[:0]
	}
	const tick = 5 * time.Millisecond // cluster.Node's tick interval
	var now, nextTick time.Duration
	run := func(cmds [][]command.Op, from int) {
		for i, o := range cmds {
			home := ids.SiteID(spec.Homes[(from+i)%Sessions])
			coord := reps[topo.ProcessAt(home, topo.ShardOf(o[0].Key))]
			push(coord.ID(), coord.Submit(command.New(coord.NextID(), o...)))
			drain()
			for now += perCmd; nextTick <= now; nextTick += tick {
				for _, pi := range topo.Processes() {
					push(pi.ID, reps[pi.ID].Tick(nextTick))
				}
				drain()
			}
		}
	}
	// Warm up so every replica has promises, watermarks and a
	// populated tracker before measuring.
	warm := min(len(cmds)/4, 256)
	run(cmds[:warm], 0)
	msgs, keep = 0, true
	m0, began := mallocs(), time.Now()
	run(cmds[warm:], warm)
	elapsed, m1 := time.Since(began), mallocs()

	n := float64(len(cmds) - warm)
	out["tempo.step_us_per_cmd"] = float64(elapsed.Microseconds()) / n
	out["tempo.allocs_per_cmd"] = float64(m1-m0) / n
	out["tempo.msgs_per_cmd"] = float64(msgs) / n
	var fast, slow uint64
	for _, p := range reps {
		f, s, _ := p.Stats()
		fast, slow = fast+f, slow+s
	}
	if fast+slow > 0 {
		out["tempo.fast_path_share"] = float64(fast) / float64(fast+slow)
	}
	return sent, opCount(cmds[warm:])
}

// measureCodec times the peer wire codec over the messages the replay
// emitted: encode and decode cost per message, decode allocations per
// message, and encoded bytes per client operation.
func measureCodec(sent []sentMsg, opsCovered int, out map[string]float64) error {
	if len(sent) == 0 {
		return nil
	}
	var buf []byte
	var err error
	encoded := make([][]byte, len(sent))
	var total float64
	began := time.Now()
	for _, s := range sent {
		if buf, err = proto.AppendMessage(buf[:0], s.msg); err != nil {
			return err
		}
	}
	out["codec.encode_ns_per_msg"] = float64(time.Since(began).Nanoseconds()) / float64(len(sent))
	for i, s := range sent {
		if encoded[i], err = proto.AppendMessage(nil, s.msg); err != nil {
			return err
		}
		total += float64(len(encoded[i]) * s.peers)
	}
	m0 := mallocs()
	began = time.Now()
	for _, b := range encoded {
		if _, _, err := proto.DecodeMessage(b); err != nil {
			return err
		}
	}
	out["codec.decode_ns_per_msg"] = float64(time.Since(began).Nanoseconds()) / float64(len(sent))
	out["codec.decode_allocs_per_msg"] = float64(mallocs()-m0) / float64(len(sent))
	out["codec.bytes_per_op"] = total / float64(opsCovered)
	return nil
}

// measurePromise times the promise tracker in the pattern one commit
// drives it: two attached promises released by the commit, one
// detached range, one stability read.
func measurePromise(out map[string]float64) {
	const n = layerOps
	pass := func(stable bool) time.Duration {
		tr := promise.NewTracker(Sites)
		var sink uint64
		began := time.Now()
		for i := uint64(1); i <= n; i++ {
			id := ids.Dot{Source: 1, Seq: i}
			tr.AddAttached(promise.Attached{Owner: 1, ID: id, TS: i})
			tr.AddAttached(promise.Attached{Owner: 2, ID: id, TS: i})
			tr.Committed(id)
			tr.AddDetached(3, i, i)
			if stable {
				sink += tr.Stable()
			}
			tr.Forget(id)
		}
		_ = sink
		return time.Since(began)
	}
	// The stability read costs a few percent of the pass it rides in:
	// take the fastest of three passes each way before subtracting.
	adds, both := pass(false), pass(true)
	for i := 0; i < 2; i++ {
		adds, both = min(adds, pass(false)), min(both, pass(true))
	}
	out["promise.add_ns"] = float64(adds.Nanoseconds()) / (3 * n)
	out["promise.stable_ns"] = max(float64((both-adds).Nanoseconds())/n, 0)
}

// measureKV times the state machine: applying the workload's commands,
// and writing a snapshot of the state they leave.
func measureKV(cmds [][]command.Op, out map[string]float64) error {
	st := kvstore.New()
	batch := make([]*command.Command, len(cmds))
	for i, o := range cmds {
		batch[i] = command.New(ids.Dot{Source: 1, Seq: uint64(i + 1)}, o...)
	}
	began := time.Now()
	for i, c := range batch {
		st.ApplyAt(c, 0, nil, uint64(i+1))
	}
	out["kvstore.apply_ns_per_op"] = float64(time.Since(began).Nanoseconds()) / float64(opCount(cmds))
	began = time.Now()
	if err := st.WriteSnapshot(io.Discard); err != nil {
		return err
	}
	out["kvstore.snapshot_ms"] = ms(time.Since(began).Nanoseconds())
	return nil
}

// measureWAL times the log on the workload's record sizes: a buffered
// Append (what the executor pays) and an AppendSync (one real fsync).
// On tmpfs an fsync is free, so the timings would describe no disk:
// they are skipped and read 0.
func measureWAL(dataRoot string, cmds [][]command.Op, out map[string]float64) error {
	if fsType(dataRoot) == "tmpfs" {
		return nil
	}
	dir, err := os.MkdirTemp(dataRoot, "wal-layer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{SyncInterval: fsyncInterval})
	if err != nil {
		return err
	}
	defer l.Close()
	if _, err := l.Snapshot(); err != nil {
		return err
	}
	if err := l.Replay(func(byte, []byte) error { return nil }); err != nil {
		return err
	}
	records := make([][]byte, min(len(cmds), 2048))
	for i := range records {
		b := proto.AppendUvarint(nil, uint64(i+1))
		b = proto.AppendUvarint(b, 0)
		records[i] = command.AppendCommand(b, command.New(ids.Dot{Source: 1, Seq: uint64(i + 1)}, cmds[i]...))
	}
	began := time.Now()
	for _, r := range records {
		l.Append(wal.RecApply, r)
	}
	out["wal.append_us"] = float64(time.Since(began).Nanoseconds()) / 1e3 / float64(len(records))
	const syncs = 32
	began = time.Now()
	for i := 0; i < syncs; i++ {
		if err := l.AppendSync(wal.RecApply, records[i%len(records)]); err != nil {
			return err
		}
	}
	out["wal.appendsync_us"] = float64(time.Since(began).Nanoseconds()) / 1e3 / syncs
	return l.Err()
}

// measureLayers runs every layer measurement for one workload.
// perBatch and perCmd come from the traced cluster run.
func measureLayers(spec Spec, in *Inputs, dataRoot string, perBatch int, perCmd time.Duration, out map[string]float64) error {
	if err := measureClientCodec(in, out); err != nil {
		return err
	}
	cmds := batchedCommands(in, max(perBatch, 1), layerOps)
	sent, covered := measureTempo(spec, cmds, perCmd, out)
	if err := measureCodec(sent, covered, out); err != nil {
		return err
	}
	measurePromise(out)
	if err := measureKV(cmds, out); err != nil {
		return err
	}
	if spec.Durable {
		return measureWAL(dataRoot, cmds, out)
	}
	return nil
}

// opCount sums the ops of cmds (a cross-shard command holds two).
func opCount(cmds [][]command.Op) int {
	n := 0
	for _, c := range cmds {
		n += len(c)
	}
	return n
}
