package fpaxos

import (
	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

// Binary wire codec for the FPaxos messages, mirroring the Tempo codec:
// hand-rolled, varint-based, append-style encoders (proto.BinaryMessage)
// plus registered decoders. Encodings are deterministic, so
// decode∘encode is the identity on bytes — pinned by
// FuzzCompareCodecRoundTrip in internal/engine.

// Wire tags. Tempo owns 1–14, EPaxos the 32-range; FPaxos owns the
// 48-range. Never reuse or renumber: the tag is the cross-version
// contract.
const (
	tagFForward byte = iota + 48
	tagFAccept
	tagFAcceptAck
	tagFCommit
	tagFSlotReq
)

func init() {
	proto.RegisterWire(tagFForward, decodeFForward)
	proto.RegisterWire(tagFAccept, decodeFAccept)
	proto.RegisterWire(tagFAcceptAck, decodeFAcceptAck)
	proto.RegisterWire(tagFCommit, decodeFCommit)
	proto.RegisterWire(tagFSlotReq, decodeFSlotReq)

}

// --- shared field helpers ---

//
//tempo:noalloc
func appendCmds(buf []byte, cmds []*command.Command) []byte {
	buf = proto.AppendUvarint(buf, uint64(len(cmds)))
	for _, c := range cmds {
		buf = command.AppendCommand(buf, c)
	}
	return buf
}

func readCmds(b []byte) ([]*command.Command, []byte, error) {
	n, b, err := proto.ReadUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, b, proto.ErrCorrupt
	}
	var cmds []*command.Command // nil when empty, so decode∘encode is the identity
	if n > 0 {
		cmds = make([]*command.Command, n)
	}
	for i := range cmds {
		if cmds[i], b, err = command.DecodeCommand(b); err != nil {
			return nil, b, err
		}
	}
	return cmds, b, nil
}

// --- per-message encoders and decoders ---

// WireTag implements proto.BinaryMessage.
func (m *FForward) WireTag() byte { return tagFForward }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *FForward) AppendBinary(buf []byte) []byte {
	return appendCmds(buf, m.Cmds)
}

func decodeFForward(b []byte) (proto.Message, []byte, error) {
	m := &FForward{}
	var err error
	if m.Cmds, b, err = readCmds(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *FAccept) WireTag() byte { return tagFAccept }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *FAccept) AppendBinary(buf []byte) []byte {
	buf = proto.AppendUvarint(buf, m.Slot)
	buf = proto.AppendUvarint(buf, uint64(m.Ballot))
	return appendCmds(buf, m.Cmds)
}

func decodeFAccept(b []byte) (proto.Message, []byte, error) {
	m := &FAccept{}
	var err error
	if m.Slot, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	var bal uint64
	if bal, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	m.Ballot = ids.Ballot(bal)
	if m.Cmds, b, err = readCmds(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *FAcceptAck) WireTag() byte { return tagFAcceptAck }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *FAcceptAck) AppendBinary(buf []byte) []byte {
	buf = proto.AppendUvarint(buf, m.Slot)
	return proto.AppendUvarint(buf, uint64(m.Ballot))
}

func decodeFAcceptAck(b []byte) (proto.Message, []byte, error) {
	m := &FAcceptAck{}
	var err error
	if m.Slot, b, err = proto.ReadUvarint(b); err != nil {
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
func (m *FCommit) WireTag() byte { return tagFCommit }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *FCommit) AppendBinary(buf []byte) []byte {
	buf = proto.AppendUvarint(buf, m.Slot)
	return appendCmds(buf, m.Cmds)
}

func decodeFCommit(b []byte) (proto.Message, []byte, error) {
	m := &FCommit{}
	var err error
	if m.Slot, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	if m.Cmds, b, err = readCmds(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}

// WireTag implements proto.BinaryMessage.
func (m *FSlotReq) WireTag() byte { return tagFSlotReq }

// AppendBinary implements proto.BinaryMessage.
//
//tempo:noalloc
func (m *FSlotReq) AppendBinary(buf []byte) []byte {
	return proto.AppendUvarint(buf, m.Next)
}

func decodeFSlotReq(b []byte) (proto.Message, []byte, error) {
	m := &FSlotReq{}
	var err error
	if m.Next, b, err = proto.ReadUvarint(b); err != nil {
		return nil, b, err
	}
	return m, b, nil
}
