package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
	"tempo/internal/wal"
)

// Durable node mode (tempo-server -data-dir). A node configured with a
// data directory survives SIGKILL:
//
//   - The executor goroutine appends every applied command (final
//     timestamp, shard, payload) to a CRC-checked write-ahead log,
//     fsync-batched so the apply hot path never waits on the disk, and
//     periodically snapshots the kvstore to bound the log's length
//     (truncate-after-snapshot, see internal/wal).
//   - The protocol's logical clock and command-id sequence are reserved
//     ahead in chunks (RecMark records): a restart resumes above any
//     value the previous incarnation could have promised or minted, so
//     no timestamp promise is ever re-issued and no Dot reused.
//   - On restart the node replays snapshot+log into the fresh replica,
//     then asks each peer (the sync protocol below, auto-detected on the
//     shared listen port) for a newer state snapshot — covering both the
//     commands executed while the node was down and any acknowledged
//     writes an unsynced WAL tail lost. Commands committed after the
//     freshest peer snapshot arrive through the protocol's own liveness
//     machinery (promise gossip + MCommitRequest), because peers cannot
//     garbage-collect a command until this node's executed watermark
//     passes it.
//
// What is deliberately NOT persisted: per-command acceptor state
// (proposals, consensus accepts). A restarting replica therefore behaves
// like a crashed one for commands that were in flight — the surviving
// replicas recover them (Algorithm 4) — which keeps the paper's
// crash-failure envelope: at most f replicas simultaneously down or
// restarting.

// DurableConfig configures persistence for a Node. See SetDurable.
type DurableConfig struct {
	// Dir is the node's data directory (created if missing). A restart
	// with the same directory, id and peer set resumes the replica.
	Dir string
	// SyncInterval batches WAL fsyncs (default 2ms). 0 fsyncs every
	// append before the client sees the result: strict local durability
	// at a per-apply fsync cost.
	SyncInterval time.Duration
	// SnapshotEvery rotates the log after this many applied commands
	// (default 8192). Smaller values shorten replay, larger ones shrink
	// snapshot write amplification.
	SnapshotEvery int
	// NoPeerSync skips the startup state-catch-up round (tests only).
	NoPeerSync bool
	// FsyncDelay is the wal.Options.FsyncDelay fault-injection hook:
	// every WAL fsync of this node sleeps this long first (the chaos
	// profiles' "slow-fsync site").
	FsyncDelay time.Duration
}

// Reservation chunking: RecMark records reserve [current, current+chunk)
// for the clock and the id sequence. The async refill fires margin
// before the reserved range runs out, so the synchronous fallback (a
// blocking fsync under the protocol lock) is only taken when the clock
// jumps past a whole chunk at once — a large MConsensus/commit bump.
const (
	reserveChunk  = 1 << 19
	reserveMargin = reserveChunk / 2
)

// defaultSyncInterval is the WAL fsync batching window when
// DurableConfig.SyncInterval is zero-valued via flag defaults.
const defaultSyncInterval = 2 * time.Millisecond

// DefaultSnapshotEvery is the default apply count between kvstore
// snapshots.
const DefaultSnapshotEvery = 8192

// durability is the per-node persistence state.
type durability struct {
	cfg DurableConfig
	log *wal.Log
	rep proto.Durable

	// Reserved watermarks (durable): the next incarnation restarts at
	// these. reserving gates the async refill goroutine.
	reservedClock atomic.Uint64
	reservedSeq   atomic.Uint64
	reserving     atomic.Bool

	// Executor-side state (single goroutine, no locking needed).
	sinceSnap int
	appendBuf []byte
	errLogged bool
}

// SyncMagic prefixes state-catch-up connections from a restarting peer
// (see the sync protocol below).
var SyncMagic = [4]byte{0xFF, 'T', 'Y', 1}

// SetDurable enables persistence. Call before Start. Recovery — snapshot
// load, WAL replay, reservation restore — runs inside
// Start/StartListener before the node serves.
func (n *Node) SetDurable(cfg DurableConfig) error {
	if cfg.Dir == "" {
		return fmt.Errorf("cluster: durable node needs a data directory")
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = defaultSyncInterval
	}
	if cfg.SyncInterval < 0 {
		cfg.SyncInterval = 0 // explicit "fsync every append"
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	n.dur = &durability{cfg: cfg, rep: n.rep}
	return nil
}

// recoverDurable loads the newest snapshot, replays the WAL through the
// replica's idempotent apply path, restores the protocol watermarks,
// catches up from peers, and writes the initial reservations. Called
// from StartListener before any goroutine serves.
func (n *Node) recoverDurable() error {
	d := n.dur
	l, err := wal.Open(d.cfg.Dir, wal.Options{SyncInterval: d.cfg.SyncInterval, FsyncDelay: d.cfg.FsyncDelay})
	if err != nil {
		return err
	}
	d.log = l
	snap, err := l.Snapshot()
	if err != nil {
		return err
	}
	if snap != nil {
		if _, _, err := d.rep.RestoreFrom(bytes.NewReader(snap)); err != nil {
			return fmt.Errorf("cluster: restore snapshot gen %d: %w", l.Gen(), err)
		}
	}
	var clockHi, seqHi uint64
	var wmTS uint64
	var wmID ids.Dot
	replayed := 0
	if err := l.Replay(func(typ byte, body []byte) error {
		switch typ {
		case wal.RecApply:
			ts, _, cmd, err := decodeApplyRec(body)
			if err != nil {
				return err
			}
			n.rep.ApplyStable(cmd, ts)
			wmTS, wmID = ts, cmd.ID
			replayed++
		case wal.RecMark:
			c, s, err := decodeMarkRec(body)
			if err != nil {
				return err
			}
			clockHi, seqHi = max(clockHi, c), max(seqHi, s)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("cluster: wal replay: %w", err)
	}
	// The snapshot's own watermark may be ahead of the replayed tail
	// (empty or truncated log); Restore takes maxes, so feeding both is
	// safe.
	if sTS, sID := d.rep.AppliedWM(); wmTS == 0 || tsPointLess(wmTS, wmID, sTS, sID) {
		wmTS, wmID = sTS, sID
	}
	d.rep.Restore(clockHi, seqHi, wmTS, wmID)
	if replayed > 0 || snap != nil {
		log.Printf("cluster: node %d recovered local state (gen %d, %d log records, wm ts=%d)", n.id, l.Gen(), replayed, wmTS)
	}
	if !d.cfg.NoPeerSync {
		n.syncFromPeers()
	}
	// Rotate so the recovered+synced state is one self-contained
	// snapshot, seeding the fresh log with the first reservation chunks:
	// serving before the reservation is durable could re-promise
	// pre-crash timestamps. The replica's clock/seq were just restored
	// to the old reservations, so reserving above the current values
	// covers both. Rotate fsyncs the seed record before the snapshot
	// rename, so no crash window exists in which the authoritative
	// generation lacks the marks.
	clock, seq := d.rep.Clock()+reserveChunk, seqHi+reserveChunk
	if err := d.log.Rotate(d.rep.SnapshotTo, d.markRecord(clock, seq)); err != nil {
		return err
	}
	d.publishReservation(clock, seq)
	return nil
}

// rotate snapshots the state machine into the next generation, seeding
// the new log with the current reservations: the old generation's log —
// which held every RecMark so far — is on its way out, a restart
// replays only the current generation, and the seed is durable before
// the snapshot rename makes that generation authoritative.
func (d *durability) rotate() error {
	clock, seq := d.reservedClock.Load(), d.reservedSeq.Load()
	return d.log.Rotate(d.rep.SnapshotTo, d.markRecord(clock, seq))
}

// markRecord encodes a RecMark reservation record.
func (d *durability) markRecord(clock, seq uint64) wal.Record {
	body := proto.AppendUvarint(nil, clock)
	body = proto.AppendUvarint(body, seq)
	return wal.Record{Type: wal.RecMark, Body: body}
}

// publishReservation raises the in-memory reservation watermarks.
func (d *durability) publishReservation(clock, seq uint64) {
	if clock > d.reservedClock.Load() {
		d.reservedClock.Store(clock)
	}
	if seq > d.reservedSeq.Load() {
		d.reservedSeq.Store(seq)
	}
}

// reserve makes a (clock, seq) reservation durable and publishes it.
func (d *durability) reserve(clock, seq uint64) error {
	rec := d.markRecord(clock, seq)
	if err := d.log.AppendSync(rec.Type, rec.Body); err != nil {
		return err
	}
	d.publishReservation(clock, seq)
	return nil
}

// maybeReserveLocked keeps the durable reservations ahead of the live
// clock and id sequence. Callers hold n.mu (clock reads require it). The
// steady-state cost is two atomic loads; the refill itself runs on a
// spawned goroutine, except when the clock jumped past the whole
// reserved range at once — then the reservation must be durable before
// the next step could promise a timestamp above it, so the fsync happens
// inline (rare: a large commit-driven bump).
func (n *Node) maybeReserveLocked() {
	d := n.dur
	if d == nil {
		return
	}
	clock := d.rep.Clock()
	seq := n.lastSeq
	rc, rs := d.reservedClock.Load(), d.reservedSeq.Load()
	if clock >= rc || seq >= rs {
		//tempo:allowblock clock jumped past the reserved range; the reservation must be durable before the next step can promise above it
		if err := d.reserve(clock+reserveChunk, seq+reserveChunk); err != nil {
			log.Printf("cluster: node %d reservation failed: %v", n.id, err)
		}
		return
	}
	if clock+reserveMargin >= rc || seq+reserveMargin >= rs {
		if d.reserving.CompareAndSwap(false, true) {
			go func(clock, seq uint64) {
				defer d.reserving.Store(false)
				if err := d.reserve(clock+reserveChunk, seq+reserveChunk); err != nil {
					log.Printf("cluster: node %d reservation failed: %v", n.id, err)
				}
			}(clock, seq)
		}
	}
}

// recordApply appends one applied command to the WAL. Runs on the
// executor goroutine, before the waiters see the result: with a zero
// sync interval the record is durable before the client is answered;
// with a batching interval the client may briefly outrun the local disk
// — the peer-sync recovery path covers that tail, as long as at most f
// replicas fail together (the paper's failure envelope).
func (d *durability) recordApply(st proto.Stable) {
	body := d.appendBuf[:0]
	body = proto.AppendUvarint(body, st.TS)
	body = proto.AppendUvarint(body, uint64(st.Shard))
	body = command.AppendCommand(body, st.Cmd)
	d.appendBuf = body
	d.log.Append(wal.RecApply, body)
	// A sticky WAL error (disk full, I/O failure) turns appends into
	// no-ops; the node deliberately keeps serving — peer replication
	// still covers its state — but the operator must hear about the
	// lost local durability, once.
	if err := d.log.Err(); err != nil && !d.errLogged {
		d.errLogged = true
		log.Printf("cluster: WAL failed, node continues WITHOUT local durability (restart will rely on peer sync): %v", err)
	}
	d.sinceSnap++
	if d.sinceSnap >= d.cfg.SnapshotEvery {
		d.sinceSnap = 0
		if err := d.rotate(); err != nil {
			log.Printf("cluster: snapshot rotation failed: %v", err)
		}
	}
}

func decodeApplyRec(b []byte) (ts uint64, shard ids.ShardID, cmd *command.Command, err error) {
	if ts, b, err = proto.ReadUvarint(b); err != nil {
		return 0, 0, nil, err
	}
	var s uint64
	if s, b, err = proto.ReadUvarint(b); err != nil {
		return 0, 0, nil, err
	}
	if cmd, _, err = command.DecodeCommand(b); err != nil || cmd == nil {
		return 0, 0, nil, proto.ErrCorrupt
	}
	return ts, ids.ShardID(s), cmd, nil
}

func decodeMarkRec(b []byte) (clock, seq uint64, err error) {
	if clock, b, err = proto.ReadUvarint(b); err != nil {
		return 0, 0, err
	}
	if seq, _, err = proto.ReadUvarint(b); err != nil {
		return 0, 0, err
	}
	return clock, seq, nil
}

// tsPointLess orders (ts, id) execution points.
func tsPointLess(aTS uint64, aID ids.Dot, bTS uint64, bID ids.Dot) bool {
	if aTS != bTS {
		return aTS < bTS
	}
	return aID.Less(bID)
}

// --- state catch-up (sync) protocol ---
//
// One frame each way on a fresh connection to the shared listen port:
//
//	request:  SyncMagic || frame( wmTS, wmID.Source, wmID.Seq, from )
//	reply:    frame( 0 )                      — requester is up to date
//	          frame( 1 || snapshot bytes )    — kvstore snapshot (embeds
//	                                            the replier's applied WM)
//
// Any node of the requester's shard can answer (the snapshot is read
// under the store's own lock, concurrent with its executor); a request
// from a process the answering group does not know is dropped.

// syncFromPeers asks every peer replicating this node's shard for a
// state snapshot newer than ours, installing each improvement before
// asking the next peer (so at most one peer's full snapshot is
// typically transferred, and later peers are filtered against the
// improved watermark). Unreachable peers are skipped: on a cold cluster
// start nobody is ahead, and a lone restart only needs one live peer to
// heal the WAL's unsynced tail. The peer set defaults to every address
// (the single-shard deployments) and is restricted by SetSyncPeers in
// sharded ones, where other shards' processes hold a different state
// machine. It needs no data directory: the join flow bootstraps fresh
// (possibly non-durable) replicas through the same round
// (BootstrapFromPeers), and addresses resolve through the membership
// view when one is installed.
func (n *Node) syncFromPeers() {
	caughtUp := false
	addrs := n.peerAddrs()
	peers := n.syncPeers
	if peers == nil {
		for pid := range addrs {
			peers = append(peers, pid)
		}
	}
	for _, pid := range peers {
		addr, ok := addrs[pid]
		if pid == n.id || !ok {
			continue
		}
		myTS, myID := n.rep.AppliedWM()
		snap, err := fetchPeerSnapshot(addr, n.id, myTS, myID, n.frameLimit)
		if err != nil {
			// Dial failures are the normal cold-start case; anything
			// else (protocol error, oversized snapshot) means a peer
			// tried to answer and failed — the operator must know the
			// node may be serving without the peers' newer state.
			var opErr *net.OpError
			if !errors.As(err, &opErr) {
				log.Printf("cluster: node %d state sync with %d failed (serving may lack its newer state): %v", n.id, pid, err)
			}
			continue
		}
		if snap == nil {
			continue
		}
		if _, _, err := n.rep.RestoreFrom(bytes.NewReader(snap)); err != nil {
			log.Printf("cluster: node %d peer snapshot from %d install failed: %v", n.id, pid, err)
			continue
		}
		caughtUp = true
	}
	if caughtUp {
		ts, id := n.rep.AppliedWM()
		log.Printf("cluster: node %d caught up from peers (wm ts=%d id=%v)", n.id, ts, id)
	}
}

// fetchPeerSnapshot performs one sync round trip. A nil result with nil
// error means the peer had nothing newer. from identifies the
// requesting process so a group listener can route the request to its
// local replica of the requester's shard.
func fetchPeerSnapshot(addr string, from ids.ProcessID, wmTS uint64, wmID ids.Dot, limit uint64) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// The deadline bounds a peer that accepted the connection but cannot
	// answer (e.g. bound-but-not-yet-recovering during a simultaneous
	// cold start); an unreachable peer already failed the dial.
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var req []byte
	req = append(req, SyncMagic[:]...)
	body := proto.AppendUvarint(nil, wmTS)
	body = proto.AppendUvarint(body, uint64(wmID.Source))
	body = proto.AppendUvarint(body, wmID.Seq)
	body = proto.AppendUvarint(body, uint64(from))
	req = proto.AppendUvarint(req, uint64(len(body)))
	req = append(req, body...)
	if _, err := conn.Write(req); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	var buf []byte
	reply, err := ReadFrame(br, limit, &buf)
	if err != nil {
		return nil, err
	}
	if len(reply) == 0 {
		return nil, proto.ErrCorrupt
	}
	if reply[0] == 0 {
		return nil, nil
	}
	return append([]byte(nil), reply[1:]...), nil
}

// syncRequest is one decoded state-catch-up request: the requester's
// applied watermark plus the requesting process, which identifies the
// shard whose state is wanted.
//
//tempo:wire encode=- decode=readSyncRequest
type syncRequest struct {
	TS   uint64
	ID   ids.Dot
	From ids.ProcessID
}

// readSyncRequest reads and decodes the one request frame of a sync
// connection.
func readSyncRequest(conn net.Conn, br *bufio.Reader, limit uint64) (syncRequest, bool) {
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var buf []byte
	body, err := ReadFrame(br, limit, &buf)
	if err != nil {
		return syncRequest{}, false
	}
	var r syncRequest
	var src, seq uint64
	if r.TS, body, err = proto.ReadUvarint(body); err != nil {
		return r, false
	}
	if src, body, err = proto.ReadUvarint(body); err != nil {
		return r, false
	}
	if seq, body, err = proto.ReadUvarint(body); err != nil {
		return r, false
	}
	r.ID = ids.Dot{Source: ids.ProcessID(src), Seq: seq}
	var from uint64
	if from, _, err = proto.ReadUvarint(body); err != nil {
		return r, false
	}
	r.From = ids.ProcessID(from)
	return r, true
}

// answerSync ships a snapshot if ours is newer than the requester's
// watermark; ours is embedded in the snapshot itself.
func (n *Node) answerSync(conn net.Conn, req syncRequest) {
	myTS, myID := n.rep.AppliedWM()
	if !tsPointLess(req.TS, req.ID, myTS, myID) {
		conn.Write([]byte{1, 0}) // frame(0): up to date
		return
	}
	var snap bytes.Buffer
	snap.WriteByte(1)
	if err := n.rep.SnapshotTo(&snap); err != nil {
		return
	}
	if uint64(snap.Len()) > n.frameLimit {
		// The requester would reject the frame anyway; dropping the
		// connection (instead of lying "up to date") surfaces the
		// failure on its side. Chunked state transfer is the known
		// missing piece for >64MB stores.
		log.Printf("cluster: node %d state snapshot (%d bytes) exceeds the sync frame limit; restarting peer cannot catch up from us", n.id, snap.Len())
		return
	}
	out := proto.AppendUvarint(nil, uint64(snap.Len()))
	out = append(out, snap.Bytes()...)
	conn.Write(out)
}
