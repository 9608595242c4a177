package main

// The correctness gate: every client records its history with a
// history.ClientRecorder; after the timed phase the merged history must be
// persistently atomic (internal/atomicity), restarts included.

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"recmem"
	"recmem/internal/atomicity"
	"recmem/internal/history"
)

// recorders holds one recorder per node: the clients of a node are one
// process in the recorded history, and node 2's restarts are its crashes
// and recoveries.
type recorders struct {
	virt atomic.Int32
	recs []*history.ClientRecorder
}

// newRecorders returns a recorder per node. One-shot virtual clients
// (pipelined submissions, ops of unknown fate, the setup anchors) get ids
// from recmem.RecordingVirtualBase up, far above the node ids.
func newRecorders(n int) *recorders {
	r := &recorders{}
	r.virt.Store(recmem.RecordingVirtualBase)
	for i := 0; i < n; i++ {
		r.recs = append(r.recs, history.NewClientRecorder(int32(i), r.vproc))
	}
	return r
}

func (r *recorders) vproc() int32                          { return r.virt.Add(1) - 1 }
func (r *recorders) forNode(i int) *history.ClientRecorder { return r.recs[i] }

// check merges the recorded histories, anchors every touched pre-populated
// register at its setup value, and checks persistent atomicity.
func (r *recorders) check(populated bool, popDone time.Time) error {
	var hs []history.History
	for _, rec := range r.recs {
		if err := rec.EpochViolation(); err != nil {
			return err
		}
		hs = append(hs, rec.History())
	}
	if populated {
		hs = append(hs, r.anchors(hs, popDone))
	}
	merged, err := history.Merge(hs)
	if err != nil {
		return err
	}
	if err := merged.Validate(); err != nil {
		return err
	}
	return checkPerRegister(merged)
}

// checkPerRegister runs atomicity.Check on each register's sub-history in
// turn, building one at a time. A sub-history holds the register's events
// plus the crashes and recoveries of the processes that operate on it.
// History.Restrict would add every process's crashes and recoveries. A
// process with no operation on the register is only a well-formed chain of
// crash and recovery events there, and it bounds no pending write, so the
// verdict is the same. Copying every restart into every register's
// sub-history would cost registers × restarts events.
func checkPerRegister(h history.History) error {
	byReg := make(map[string][]int)
	lifecycle := make(map[int32][]int)
	for i, e := range h {
		switch e.Kind {
		case history.Invoke, history.Return:
			byReg[e.Reg] = append(byReg[e.Reg], i)
		case history.Crash, history.Recover:
			lifecycle[e.Proc] = append(lifecycle[e.Proc], i)
		}
	}
	regs := make([]string, 0, len(byReg))
	for reg := range byReg {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	for _, reg := range regs {
		idx := byReg[reg]
		procs := make(map[int32]bool)
		for _, i := range idx {
			procs[h[i].Proc] = true
		}
		for p := range procs {
			idx = append(idx, lifecycle[p]...)
		}
		sort.Ints(idx)
		sub := make(history.History, len(idx))
		for j, i := range idx {
			sub[j] = h[i]
		}
		if err := atomicity.Check(sub, atomicity.Persistent); err != nil {
			return err
		}
	}
	return nil
}

// anchors is the setup's part of the history: for every pre-populated
// register the run touched, a write of its setup value that completed when
// population finished, before any client op.
func (r *recorders) anchors(hs []history.History, at time.Time) history.History {
	touched := make(map[string]bool)
	for _, h := range hs {
		for _, e := range h {
			if e.Reg != "" {
				touched[e.Reg] = true
			}
		}
	}
	regs := make([]string, 0, len(touched))
	for reg := range touched {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	var out history.History
	for i, reg := range regs {
		n, err := strconv.Atoi(strings.TrimPrefix(reg, "r"))
		if err != nil {
			continue
		}
		proc := r.vproc()
		op := uint64(i + 1)
		out = append(out,
			history.Event{Proc: proc, Kind: history.Invoke, Op: history.Write, OpID: op, Reg: reg,
				Value: popValue(n), At: at.UnixNano()},
			history.Event{Proc: proc, Kind: history.Return, Op: history.Write, OpID: op, Reg: reg,
				Tag: popTag(), At: at.UnixNano()})
	}
	for i := range out {
		out[i].Seq = int64(i + 1)
	}
	return out
}
