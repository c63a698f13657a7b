package tempo

import (
	"testing"
	"time"

	"tempo/internal/command"
	"tempo/internal/ids"
	"tempo/internal/testnet"
)

// TestFigure3TimestampStability encodes the left-hand side of Figure 3:
// r = 3 processes A, B, C; commands w, x submitted by A, y by B, z by C,
// arriving as w, x, z at A; y, w at B; z, y at C (x's proposal to B is
// delayed). The paper derives:
//
//	attached promises: w -> {<A,1>,<B,2>}, x -> {<A,2>},
//	                   y -> {<B,1>,<C,2>}, z -> {<C,1>,<A,3>}
//	timestamps:        ts(w)=2, ts(y)=2, ts(z)=3, x uncommitted
//
// and timestamp 2 is stable, so w and y execute even though x is not
// committed — unlike EPaxos/Caesar in the same scenario (§3.3).
func TestFigure3TimestampStability(t *testing.T) {
	topo := lineTopo(t, 3, 1, 1)
	procs, net := makeNet(t, topo, Config{})
	A := at(topo, 0, 0)
	B := at(topo, 1, 0)
	C := at(topo, 2, 0)

	w := command.NewPut(procs[A].NextID(), "w", nil)
	x := command.NewPut(procs[A].NextID(), "x", nil)
	y := command.NewPut(procs[B].NextID(), "y", nil)
	z := command.NewPut(procs[C].NextID(), "z", nil)

	// Park x's proposal to B so that only A sees x.
	net.Hold = func(e testnet.Env) bool {
		mp, ok := e.Msg.(*MPropose)
		return ok && mp.ID == x.ID && e.To == B
	}

	// Fast quorums as in the figure: w,x use {A,B}; y uses {B,C};
	// z uses {C,A}. Submissions happen in order w, x, y, z; remote
	// proposals then drain FIFO, giving the figure's arrival order.
	submit := func(coord ids.ProcessID, c *command.Command, fq ...ids.ProcessID) {
		net.Deliver(coord, coord, &MSubmit{ID: c.ID, Cmd: c, Quorums: Quorums{0: fq}})
	}
	submit(A, w, A, B)
	submit(A, x, A, B)
	submit(B, y, B, C)
	submit(C, z, C, A)
	net.Drain(0)

	// Committed timestamps match the paper.
	wantTS := map[ids.Dot]uint64{w.ID: 2, y.ID: 2, z.ID: 3}
	for id, want := range wantTS {
		for pid, p := range procs {
			ci := p.cmds[id]
			if ci == nil || (ci.phase != PhaseCommit && ci.phase != PhaseExecute) {
				t.Fatalf("process %d: %v not committed", pid, id)
			}
			if ci.finalTS != want {
				t.Errorf("process %d: ts(%v)=%d, want %d", pid, id, ci.finalTS, want)
			}
		}
	}
	if ci := procs[A].cmds[x.ID]; ci.phase != PhasePropose {
		t.Fatalf("x should still be pending at A, phase %v", ci.phase)
	}

	// Attached promises match the figure (checking the proposers' own
	// records).
	if procs[A].ownAttached(w.ID) != 1 || procs[B].ownAttached(w.ID) != 2 {
		t.Error("w attached promises should be <A,1>,<B,2>")
	}
	if procs[A].ownAttached(x.ID) != 2 {
		t.Error("x attached promise should be <A,2>")
	}
	if procs[B].ownAttached(y.ID) != 1 || procs[C].ownAttached(y.ID) != 2 {
		t.Error("y attached promises should be <B,1>,<C,2>")
	}
	if procs[C].ownAttached(z.ID) != 1 || procs[A].ownAttached(z.ID) != 3 {
		t.Error("z attached promises should be <C,1>,<A,3>")
	}

	// Timestamp 2 is stable at A (promises piggybacked on MCommit), so w
	// and y executed — despite x being uncommitted.
	if got := procs[A].tracker.Stable(); got != 2 {
		t.Errorf("stable at A = %d, want 2", got)
	}
	execA := procs[A].Drain()
	if len(execA) != 2 || execA[0].Cmd.ID != w.ID || execA[1].Cmd.ID != y.ID {
		got := make([]ids.Dot, len(execA))
		for i, e := range execA {
			got[i] = e.Cmd.ID
		}
		t.Fatalf("A executed %v, want [w y]", got)
	}

	// After detached promises propagate (periodic MPromises), z's
	// timestamp 3 becomes stable via B and C, and z executes — still
	// without x.
	net.Settle(3, 5*time.Millisecond)
	found := false
	for _, e := range procs[A].Drain() {
		if e.Cmd.ID == z.ID {
			found = true
		}
		if e.Cmd.ID == x.ID {
			t.Fatal("x must not execute: it was never committed")
		}
	}
	if !found {
		t.Fatal("z should execute once detached promises propagate")
	}
}
