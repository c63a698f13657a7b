package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"

	"tempo/client"
	"tempo/internal/command"
	"tempo/internal/ids"
)

// sampleKeys is how many keys the replica-agreement check reads through
// every site.
const sampleKeys = 1000

// readBatch is how many gets ride in one verification command.
const readBatch = 64

// pinnedSession dials a session that can reach only one site's
// replicas, so its reads are served by that site.
func pinnedSession(d *Deployment, site int) (*client.Session, error) {
	addrs := make(map[ids.ProcessID]string)
	for _, pi := range d.topo.Processes() {
		if int(pi.Site) == site {
			addrs[pi.ID] = d.procAddrs[pi.ID]
		}
	}
	cfg := client.Config{Addrs: addrs}
	if d.spec.Shards > 1 {
		cfg.Topo, cfg.Site = d.topo, ids.SiteID(site)
	}
	return client.New(cfg)
}

// readKeys reads keys through sess, batching gets of one shard into one
// command, and returns the values in key order.
func readKeys(ctx context.Context, sess *client.Session, in *Inputs, keys []uint32) ([][]byte, error) {
	out := make([][]byte, len(keys))
	var futs []*client.Future
	var idxs [][]int
	byShard := make(map[uint8][]int)
	flush := func(sh uint8) {
		pos := byShard[sh]
		if len(pos) == 0 {
			return
		}
		ops := make([]command.Op, len(pos))
		for i, p := range pos {
			ops[i] = command.Op{Kind: command.Get, Key: in.Keys[keys[p]]}
		}
		futs = append(futs, sess.Do(ctx, ops...))
		idxs = append(idxs, pos)
		byShard[sh] = nil
	}
	for p, k := range keys {
		sh := in.Shard[k]
		byShard[sh] = append(byShard[sh], p)
		if len(byShard[sh]) == readBatch {
			flush(sh)
		}
	}
	for sh := range byShard {
		flush(sh)
	}
	for i, f := range futs {
		vals, err := f.Wait(ctx)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(idxs[i]) {
			return nil, fmt.Errorf("read of %d keys returned %d values", len(idxs[i]), len(vals))
		}
		for j, p := range idxs[i] {
			out[p] = vals[j]
		}
	}
	return out, nil
}

// verifyFinal runs the end-of-run checks once the sessions are quiet:
// every site, read through a session pinned to it, must return the same
// value for each sampled key, and that value must respect every
// session's acknowledged puts. With allWritten (the crash workload) the
// sample is every key any session has an acknowledged put to, so no
// acknowledged write may be lost across the restarts.
func verifyFinal(ctx context.Context, d *Deployment, in *Inputs, drivers []*Session, issued *[Sessions]atomic.Uint32, allWritten bool) error {
	var keys []uint32
	if allWritten {
		for k := range in.Keys {
			for _, s := range drivers {
				if s.lastAcked[k] != 0 {
					keys = append(keys, uint32(k))
					break
				}
			}
		}
	} else {
		step := max(len(in.Keys)/sampleKeys, 1)
		for k := 0; k < len(in.Keys); k += step {
			keys = append(keys, uint32(k))
		}
	}
	var ref [][]byte
	scratch := make([]byte, d.spec.ValueBytes)
	for site := 0; site < Sites; site++ {
		sess, err := pinnedSession(d, site)
		if err != nil {
			return err
		}
		vals, err := readKeys(ctx, sess, in, keys)
		sess.Close()
		if err != nil {
			return fmt.Errorf("final read through site %d: %w", site, err)
		}
		if ref == nil {
			ref = vals
			for i, k := range keys {
				for _, s := range drivers {
					if err := checkValue(in, s.id, k, s.lastAcked[k], s.superseded[k], vals[i], scratch, issued); err != nil {
						return fmt.Errorf("final read: %w", err)
					}
				}
			}
			continue
		}
		for i, k := range keys {
			if !bytes.Equal(ref[i], vals[i]) {
				return fmt.Errorf("replicas disagree on %s: site 0 and site %d hold different values", in.Keys[k], site)
			}
		}
	}
	return nil
}
