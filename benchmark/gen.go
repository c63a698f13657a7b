package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"tempo/internal/command"
	"tempo/internal/topology"
	"tempo/internal/workload"
)

// StreamLen is the number of operations generated per session. A
// session that outruns its stream wraps around it; the sequence number
// keeps counting, so values stay unique.
const StreamLen = 1 << 20

// NoKey marks the unused second key of a single-key operation.
const NoKey = ^uint32(0)

// valueHeader is the prefix of every written value: the writer's
// sequence number (4 bytes, little endian) and its session (1 byte),
// padded to 8. It identifies the put for the output checks and for the
// traced run's execution observer.
const valueHeader = 8

// Op is one generated operation: a get or a put of key A, and of key B
// too when the command spans both shards.
type Op struct {
	A, B uint32
	Get  bool
}

// Inputs is everything a workload run consumes, generated before the
// clock starts from (workload, seed) alone.
type Inputs struct {
	// Keys is the key space; Shard gives each key's shard.
	Keys  []command.Key
	Shard []uint8
	// Ops is each session's operation stream.
	Ops [Sessions][]Op
	// Filler is each session's value body: a put's value is the
	// 8-byte header followed by Filler[session][8:].
	Filler [Sessions][]byte
}

// newTopology builds the three-site, f = 1 topology every workload
// runs on, with the all-zero RTT matrix tempo-server itself uses.
func newTopology(shards int) *topology.Topology {
	names := make([]string, Sites)
	rtt := make([][]time.Duration, Sites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%d", i)
		rtt[i] = make([]time.Duration, Sites)
	}
	t, err := topology.New(topology.Config{SiteNames: names, RTT: rtt, NumShards: shards, F: 1})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return t
}

// Generate builds a workload's inputs. It is a pure function of
// (spec, seed): two calls return identical streams.
func Generate(spec Spec, seed int64) *Inputs {
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	base := seed*1_000_003 + int64(h.Sum64()>>1)

	in := &Inputs{
		Keys:  make([]command.Key, spec.Keys),
		Shard: make([]uint8, spec.Keys),
	}
	topo := newTopology(spec.Shards)
	var byShard [2][]uint32
	for i := range in.Keys {
		in.Keys[i] = command.Key(fmt.Sprintf("k%015d", i))
		s := uint8(topo.ShardOf(in.Keys[i]))
		in.Shard[i] = s
		if spec.Shards > 1 {
			byShard[s] = append(byShard[s], uint32(i))
		}
	}
	var zipf *workload.Zipfian
	if spec.Theta > 0 {
		zipf = workload.NewZipfian(spec.Keys, spec.Theta)
	}
	for s := 0; s < Sessions; s++ {
		rng := rand.New(rand.NewSource(base + int64(s)*7919))
		in.Filler[s] = make([]byte, spec.ValueBytes)
		rng.Read(in.Filler[s])
		ops := make([]Op, StreamLen)
		for i := range ops {
			op := Op{B: NoKey, Get: rng.Float64() < spec.GetShare}
			switch {
			case spec.CrossShare > 0 && rng.Float64() < spec.CrossShare:
				op.A = byShard[0][rng.Intn(len(byShard[0]))]
				op.B = byShard[1][rng.Intn(len(byShard[1]))]
			case zipf != nil:
				op.A = uint32(zipf.Sample(rng))
			default:
				op.A = uint32(rng.Intn(spec.Keys))
			}
			ops[i] = op
		}
		in.Ops[s] = ops
	}
	return in
}

// At returns the operation a session issues under sequence number seq.
func (in *Inputs) At(session int, seq uint32) Op {
	return in.Ops[session][seq%StreamLen]
}

// Value writes the value session puts under sequence number seq into
// dst, which must be Filler-sized, and returns it.
func (in *Inputs) Value(dst []byte, session int, seq uint32) []byte {
	copy(dst, in.Filler[session])
	binary.LittleEndian.PutUint32(dst, seq)
	dst[4] = byte(session)
	dst[5], dst[6], dst[7] = 0, 0, 0
	return dst
}

// Writer decodes the header of a stored value. ok is false when v is
// too short to be one of this benchmark's values or names no session.
func Writer(v []byte) (session int, seq uint32, ok bool) {
	if len(v) < valueHeader || int(v[4]) >= Sessions {
		return 0, 0, false
	}
	return int(v[4]), binary.LittleEndian.Uint32(v), true
}

// Digest folds the whole input set into one hash, for the determinism
// test and the result file.
func (in *Inputs) Digest() uint64 {
	h := fnv.New64a()
	var b [9]byte
	for s := range in.Ops {
		h.Write(in.Filler[s])
		for _, op := range in.Ops[s] {
			binary.LittleEndian.PutUint32(b[0:], op.A)
			binary.LittleEndian.PutUint32(b[4:], op.B)
			b[8] = 0
			if op.Get {
				b[8] = 1
			}
			h.Write(b[:])
		}
	}
	for _, k := range in.Keys {
		h.Write([]byte(k))
	}
	return h.Sum64()
}
