package bench

import (
	"context"
	"testing"

	"tempo/client"
	"tempo/internal/cluster"
	"tempo/internal/command"
)

// Closed-loop client round-trip benchmark over a real loopback cluster:
// completed Puts against a 3-replica Tempo cluster through the
// pipelined session with a 64-deep window.

// ClientBenchWindow is the pipeline depth of the pipelined round-trip
// benchmark.
const ClientBenchWindow = 64

// loopbackCluster boots a 3-replica Tempo cluster on loopback with the
// default server batching and returns the client addresses in
// process-id order plus a shutdown function. (The cluster experiment's
// loopbackClusterBatch in clusterbench.go is the one implementation, so
// the micro round-trip and loaded-cluster numbers always measure the
// same cluster shape.)
func loopbackCluster() ([]string, func()) {
	return loopbackClusterBatch(cluster.DefaultBatchOps, cluster.DefaultBatchWindow)
}

func putOp(key string, v []byte) command.Op {
	return command.Op{Kind: command.Put, Key: command.Key(key), Value: v}
}

// ClientPipelinedRoundTripLoop measures the session API with
// ClientBenchWindow requests in flight on one connection.
func ClientPipelinedRoundTripLoop(b *testing.B) {
	addrs, cleanup := loopbackCluster()
	defer cleanup()
	sess, err := client.Dial(addrs...)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if err := sess.Put(ctx, "warm", []byte("x")); err != nil {
		b.Fatal(err)
	}
	op := putOp("bench", []byte("x"))
	b.ResetTimer()
	window := make([]*client.Future, 0, ClientBenchWindow)
	for i := 0; i < b.N; i++ {
		if len(window) == ClientBenchWindow {
			if _, err := window[0].Wait(ctx); err != nil {
				b.Fatal(err)
			}
			window = append(window[:0], window[1:]...)
		}
		window = append(window, sess.Do(ctx, op))
	}
	for _, f := range window {
		if _, err := f.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	b.ReportMetric(ClientBenchWindow, "inflight")
}
