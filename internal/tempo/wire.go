package tempo

import (
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// Binary wire codec for the Tempo messages: hand-rolled, varint-based,
// append-style encoders (proto.BinaryMessage) plus registered decoders.
// The cluster runtime's peer links carry it; encodings are
// deterministic (Quorums maps are serialized in shard order), so
// decode∘encode is the identity on bytes — pinned by TestCodecRoundTrip
// and FuzzCodecRoundTrip.

// Wire tags. Never reuse or renumber: the tag is the cross-version
// contract.
const (
	tagMSubmit byte = iota + 1
	tagMPayload
	tagMPropose
	tagMProposeAck
	tagMBump
	tagMCommit
	tagMConsensus
	tagMConsensusAck
	tagMRec
	tagMRecAck
	tagMRecNAck
	tagMCommitRequest
	tagMPromises
	tagMStable
)

func init() {
	proto.RegisterWire(tagMSubmit, decodeMSubmit)
	proto.RegisterWire(tagMPayload, decodeMPayload)
	proto.RegisterWire(tagMPropose, decodeMPropose)
	proto.RegisterWire(tagMProposeAck, decodeMProposeAck)
	proto.RegisterWire(tagMBump, decodeMBump)
	proto.RegisterWire(tagMCommit, decodeMCommit)
	proto.RegisterWire(tagMConsensus, decodeMConsensus)
	proto.RegisterWire(tagMConsensusAck, decodeMConsensusAck)
	proto.RegisterWire(tagMRec, decodeMRec)
	proto.RegisterWire(tagMRecAck, decodeMRecAck)
	proto.RegisterWire(tagMRecNAck, decodeMRecNAck)
	proto.RegisterWire(tagMCommitRequest, decodeMCommitRequest)
	proto.RegisterWire(tagMPromises, decodeMPromises)
	proto.RegisterWire(tagMStable, decodeMStable)

}

// --- shared field helpers ---

//
//tempo:noalloc
func appendDot(buf []byte, d ids.Dot) []byte {
	buf = proto.AppendUvarint(buf, uint64(d.Source))
	return proto.AppendUvarint(buf, d.Seq)
}

func readDot(b []byte) (ids.Dot, []byte, error) {
	src, b, err := proto.ReadUvarint(b)
	if err != nil {
		return ids.Dot{}, b, err
	}
	seq, b, err := proto.ReadUvarint(b)
	if err != nil {
		return ids.Dot{}, b, err
	}
	return ids.Dot{Source: ids.ProcessID(src), Seq: seq}, b, nil
}

// appendQuorums serializes the map in ascending shard order so equal
// maps always produce equal bytes.
//
//tempo:noalloc
func appendQuorums(buf []byte, q Quorums) []byte {
	buf = proto.AppendUvarint(buf, uint64(len(q)))
	var stack [8]ids.ShardID
	keys := stack[:0]
	for s := range q {
		//tempo:allowalloc stack-backed up to 8 shards; grows only beyond that
		keys = append(keys, s)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; quorum maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, s := range keys {
		buf = proto.AppendUvarint(buf, uint64(s))
		ps := q[s]
		buf = proto.AppendUvarint(buf, uint64(len(ps)))
		for _, p := range ps {
			buf = proto.AppendUvarint(buf, uint64(p))
		}
	}
	return buf
}

func readQuorums(b []byte) (Quorums, []byte, error) {
	n, b, err := proto.ReadUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	if n == 0 {
		return nil, b, nil
	}
	q := make(Quorums, n)
	for i := uint64(0); i < n; i++ {
		var s, k uint64
		if s, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
		if k, b, err = proto.ReadUvarint(b); err != nil || k > uint64(len(b)) {
			return nil, b, proto.ErrCorrupt
		}
		var ps []ids.ProcessID // nil when empty, so decode∘encode is the identity
		if k > 0 {
			ps = make([]ids.ProcessID, k)
		}
		for j := uint64(0); j < k; j++ {
			var p uint64
			if p, b, err = proto.ReadUvarint(b); err != nil {
				return nil, b, err
			}
			ps[j] = ids.ProcessID(p)
		}
		q[ids.ShardID(s)] = ps
	}
	return q, b, nil
}

//
//tempo:noalloc
func appendWM(buf []byte, w TSWatermark) []byte {
	buf = proto.AppendUvarint(buf, w.TS)
	return appendDot(buf, w.ID)
}

func readWM(b []byte) (TSWatermark, []byte, error) {
	ts, b, err := proto.ReadUvarint(b)
	if err != nil {
		return TSWatermark{}, b, err
	}
	id, b, err := readDot(b)
	if err != nil {
		return TSWatermark{}, b, err
	}
	return TSWatermark{TS: ts, ID: id}, b, nil
}

// --- per-message encoders and decoders ---

// WireTag implements proto.BinaryMessage.
func (m *MSubmit) WireTag() byte { return tagMSubmit }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MSubmit) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = command.AppendCommand(buf, m.Cmd)
	return appendQuorums(buf, m.Quorums)
}

func decodeMSubmit(b []byte) (proto.Message, []byte, error) {
	m := &MSubmit{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.Cmd, b, err = command.DecodeCommand(b); err != nil {
		return nil, b, err
	}
	if m.Quorums, b, err = readQuorums(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MPayload) WireTag() byte { return tagMPayload }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MPayload) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = command.AppendCommand(buf, m.Cmd)
	return appendQuorums(buf, m.Quorums)
}

func decodeMPayload(b []byte) (proto.Message, []byte, error) {
	m := &MPayload{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.Cmd, b, err = command.DecodeCommand(b); err != nil {
		return nil, b, err
	}
	if m.Quorums, b, err = readQuorums(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MPropose) WireTag() byte { return tagMPropose }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MPropose) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = command.AppendCommand(buf, m.Cmd)
	buf = appendQuorums(buf, m.Quorums)
	return proto.AppendUvarint(buf, m.TS)
}

func decodeMPropose(b []byte) (proto.Message, []byte, error) {
	m := &MPropose{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.Cmd, b, err = command.DecodeCommand(b); err != nil {
		return nil, b, err
	}
	if m.Quorums, b, err = readQuorums(b); err != nil {
		return nil, b, err
	}
	if m.TS, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MProposeAck) WireTag() byte { return tagMProposeAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MProposeAck) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, m.TS)
	buf = proto.AppendUvarint(buf, m.DetachedLo)
	return proto.AppendUvarint(buf, m.DetachedHi)
}

func decodeMProposeAck(b []byte) (proto.Message, []byte, error) {
	m := &MProposeAck{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.TS, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.DetachedLo, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.DetachedHi, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MBump) WireTag() byte { return tagMBump }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MBump) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	return proto.AppendUvarint(buf, m.TS)
}

func decodeMBump(b []byte) (proto.Message, []byte, error) {
	m := &MBump{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.TS, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MCommit) WireTag() byte { return tagMCommit }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MCommit) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, uint64(m.Shard))
	buf = proto.AppendUvarint(buf, m.TS)
	buf = proto.AppendUvarint(buf, uint64(len(m.Attached)))
	for _, a := range m.Attached {
		buf = proto.AppendUvarint(buf, uint64(a.Rank))
		buf = proto.AppendUvarint(buf, a.TS)
		buf = proto.AppendUvarint(buf, a.DetLo)
		buf = proto.AppendUvarint(buf, a.DetHi)
	}
	return buf
}

func decodeMCommit(b []byte) (proto.Message, []byte, error) {
	m := &MCommit{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var shard, n uint64
	if shard, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Shard = ids.ShardID(shard)
	if m.TS, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if n, b, err = proto.ReadUvarint(b); err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	if n > 0 {
		m.Attached = make([]RankTS, n)
	}
	for i := range m.Attached {
		var rank uint64
		if rank, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
		m.Attached[i].Rank = ids.Rank(rank)
		if m.Attached[i].TS, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
		if m.Attached[i].DetLo, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
		if m.Attached[i].DetHi, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MConsensus) WireTag() byte { return tagMConsensus }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MConsensus) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, m.TS)
	return proto.AppendUvarint(buf, uint64(m.Ballot))
}

func decodeMConsensus(b []byte) (proto.Message, []byte, error) {
	m := &MConsensus{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.TS, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MConsensusAck) WireTag() byte { return tagMConsensusAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MConsensusAck) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	return proto.AppendUvarint(buf, uint64(m.Ballot))
}

func decodeMConsensusAck(b []byte) (proto.Message, []byte, error) {
	m := &MConsensusAck{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MRec) WireTag() byte { return tagMRec }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MRec) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	return proto.AppendUvarint(buf, uint64(m.Ballot))
}

func decodeMRec(b []byte) (proto.Message, []byte, error) {
	m := &MRec{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MRecAck) WireTag() byte { return tagMRecAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MRecAck) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	buf = proto.AppendUvarint(buf, m.TS)
	buf = append(buf, byte(m.Phase))
	buf = proto.AppendUvarint(buf, uint64(m.ABallot))
	buf = proto.AppendUvarint(buf, uint64(m.Ballot))
	if m.Attached {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodeMRecAck(b []byte) (proto.Message, []byte, error) {
	m := &MRecAck{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	if m.TS, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if len(b) == 0 {
		return nil, b, proto.ErrCorrupt
	}
	m.Phase = Phase(b[0])
	b = b[1:]
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.ABallot = ids.Ballot(bal)
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	if len(b) == 0 {
		return nil, b, proto.ErrCorrupt
	}
	m.Attached = b[0] != 0
	b = b[1:]
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MRecNAck) WireTag() byte { return tagMRecNAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MRecNAck) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	return proto.AppendUvarint(buf, uint64(m.Ballot))
}

func decodeMRecNAck(b []byte) (proto.Message, []byte, error) {
	m := &MRecNAck{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MCommitRequest) WireTag() byte { return tagMCommitRequest }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MCommitRequest) AppendBinary(buf []byte) []byte {
	return appendDot(buf, m.ID)
}

func decodeMCommitRequest(b []byte) (proto.Message, []byte, error) {
	m := &MCommitRequest{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MPromises) WireTag() byte { return tagMPromises }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MPromises) AppendBinary(buf []byte) []byte {
	buf = proto.AppendUvarint(buf, uint64(m.Rank))
	buf = proto.AppendUvarint(buf, uint64(len(m.Detached)))
	for _, v := range m.Detached {
		buf = proto.AppendUvarint(buf, v)
	}
	buf = proto.AppendUvarint(buf, uint64(len(m.Attached)))
	for _, a := range m.Attached {
		buf = appendDot(buf, a.ID)
		buf = proto.AppendUvarint(buf, a.TS)
	}
	return appendWM(buf, m.WM)
}

func decodeMPromises(b []byte) (proto.Message, []byte, error) {
	m := &MPromises{}
	var rank, n uint64
	var err error
	if rank, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Rank = ids.Rank(rank)
	if n, b, err = proto.ReadUvarint(b); err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	if n > 0 {
		m.Detached = make([]uint64, n)
	}
	for i := range m.Detached {
		if m.Detached[i], b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
	}
	if n, b, err = proto.ReadUvarint(b); err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	if n > 0 {
		m.Attached = make([]AttachedWire, n)
	}
	for i := range m.Attached {
		if m.Attached[i].ID, b, err = readDot(b); err != nil {
			return nil, b, err
		}
		if m.Attached[i].TS, b, err = proto.ReadUvarint(b); err != nil {
			return nil, b, err
		}
	}
	if m.WM, b, err = readWM(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *MStable) WireTag() byte { return tagMStable }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *MStable) AppendBinary(buf []byte) []byte {
	buf = appendDot(buf, m.ID)
	return proto.AppendUvarint(buf, uint64(m.Shard))
}

func decodeMStable(b []byte) (proto.Message, []byte, error) {
	m := &MStable{}
	var err error
	if m.ID, b, err = readDot(b); err != nil {
		return nil, b, err
	}
	var shard uint64
	if shard, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Shard = ids.ShardID(shard)
	return m, b, nil
}
