package tempo

import (
	"bytes"
	"reflect"
	"testing"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/proto"
)

func sampleCmd() *command.Command {
	c := command.New(ids.Dot{Source: 3, Seq: 41},
		command.Op{Kind: command.Put, Key: "alpha", Value: []byte("v-alpha")},
		command.Op{Kind: command.Get, Key: "beta"},
	)
	c.Padding = 100
	return c
}

// sampleMessages covers every registered message type with
// representative field values (including empty/nil optional fields).
func sampleMessages() []proto.Message {
	cmd := sampleCmd()
	q := Quorums{
		0: {1, 2, 3},
		1: {4, 5},
	}
	return []proto.Message{
		&MSubmit{ID: ids.Dot{Source: 1, Seq: 7}, Cmd: cmd, Quorums: q},
		&MSubmit{ID: ids.Dot{Source: 1, Seq: 8}}, // nil payload, nil quorums
		&MPayload{ID: ids.Dot{Source: 2, Seq: 9}, Cmd: cmd, Quorums: q},
		&MPropose{ID: ids.Dot{Source: 2, Seq: 10}, Cmd: cmd, Quorums: q, TS: 77},
		&MProposeAck{ID: ids.Dot{Source: 3, Seq: 11}, TS: 78, DetachedLo: 70, DetachedHi: 77},
		&MProposeAck{ID: ids.Dot{Source: 3, Seq: 12}, TS: 79},
		&MBump{ID: ids.Dot{Source: 4, Seq: 13}, TS: 80},
		&MCommit{ID: ids.Dot{Source: 4, Seq: 14}, Shard: 1, TS: 81, Attached: []RankTS{
			{Rank: 1, TS: 81, DetLo: 75, DetHi: 80},
			{Rank: 2, TS: 79},
		}},
		&MCommit{ID: ids.Dot{Source: 4, Seq: 15}, Shard: 0, TS: 82},
		&MConsensus{ID: ids.Dot{Source: 5, Seq: 16}, TS: 83, Ballot: 12},
		&MConsensusAck{ID: ids.Dot{Source: 5, Seq: 17}, Ballot: 12},
		&MRec{ID: ids.Dot{Source: 1, Seq: 18}, Ballot: 9},
		&MRecAck{ID: ids.Dot{Source: 1, Seq: 19}, TS: 84, Phase: PhaseRecoverP, ABallot: 3, Ballot: 9, Attached: true},
		&MRecNAck{ID: ids.Dot{Source: 2, Seq: 20}, Ballot: 14},
		&MCommitRequest{ID: ids.Dot{Source: 2, Seq: 21}},
		&MPromises{Rank: 3, Detached: []uint64{1, 10, 15, 20},
			Attached: []AttachedWire{{ID: ids.Dot{Source: 1, Seq: 22}, TS: 85}},
			WM:       TSWatermark{TS: 60, ID: ids.Dot{Source: 3, Seq: 5}}},
		&MPromises{Rank: 4, WM: TSWatermark{TS: 0, ID: ids.Dot{}}},
		&MStable{ID: ids.Dot{Source: 3, Seq: 23}, Shard: 1},
	}
}

// TestCodecRoundTrip pins the acceptance property: the binary codec
// round-trips every message type byte-identically to its decoded form.
func TestCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		b1, err := proto.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		m2, rest, err := proto.DecodeMessage(b1)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%T: %d trailing bytes", m, len(rest))
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%T: decoded %+v != original %+v", m, m2, m)
		}
		b2, err := proto.AppendMessage(nil, m2)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", m, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%T: re-encode not byte-identical:\n  %x\n  %x", m, b1, b2)
		}
	}
}

// FuzzCodecRoundTrip fuzzes the decoder with raw bytes: corrupt input
// must be rejected without a panic, and anything that decodes must
// re-encode canonically (byte-identical) and decode back DeepEqual, for
// every registered message type.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		b, err := proto.AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, rest, err := proto.DecodeMessage(data)
		if err != nil {
			return // corrupt input rejected: fine
		}
		_ = rest
		b1, err := proto.AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		msg2, rest2, err := proto.DecodeMessage(b1)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode %T: %v (%d trailing)", msg, err, len(rest2))
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed %T:\n  %+v\n  %+v", msg, msg, msg2)
		}
		b2, err := proto.AppendMessage(nil, msg2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("%T encoding not canonical", msg)
		}
	})
}

// BenchmarkCodec lives in the repository-level
// bench_test.go, backed by internal/bench's micro harness so `bench
// -exp micro` emits the same numbers to BENCH_micro.json.
