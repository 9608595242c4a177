package core

import (
	"context"
	"time"

	"recmem/internal/wire"
)

// runRound broadcasts req to all processes and blocks until
// acknowledgements from a majority of distinct processes arrive — the
// paper's
//
//	repeat send(...) to all until receive(... ack) from ⌈(n+1)/2⌉ processes
//
// Over fair-lossy channels the broadcast is retransmitted periodically; the
// collected acknowledgements are deduplicated by sender. Every sweep stages
// through the node's outbox, so sweeps of concurrently running rounds
// (different registers of the batching engine) group-commit into
// per-destination batch frames. The round aborts with ErrCrashed if the
// process crashes, or with the context's error on cancellation; it
// otherwise blocks for as long as a majority is unreachable, which is
// exactly the robustness contract (operations by processes that do not crash
// terminate once a majority is permanently up).
//
// If require is a valid process id, the round does not complete until that
// process's acknowledgement is among the collected majority: the RegularSW
// writer requires its own acknowledgement, which certifies that its own
// listener has logged the new timestamp — the synchronization that keeps the
// single writer's timestamps strictly monotone across crashes.
func (nd *Node) runRound(ctx context.Context, op uint64, req wire.Envelope, require int32) (map[int32]wire.Envelope, error) {
	return nd.runRoundOpts(ctx, op, req, roundOpts{require: require, to: -1})
}

// roundOpts generalizes a round beyond the default broadcast-to-all,
// majority-acknowledged shape.
type roundOpts struct {
	// require, if a valid process id, must be among the collected
	// acknowledgements before the round completes (-1: any quorum).
	require int32
	// to, if a valid process id, restricts the round to that single
	// destination (-1: broadcast to all processes). The §VI safe read is a
	// round addressed to the writer alone.
	to int32
	// quorum overrides the number of distinct acknowledgements required
	// (0: the majority ⌈(n+1)/2⌉).
	quorum int
}

// roundState is the per-round working set — the acknowledgement channel, the
// destination and sweep scratch slices, and the retransmission timer — pooled
// per node so a round's setup allocates only its result map (which escapes to
// the protocol layer). The channel is safe to recycle because routeAck sends
// only while holding nd.mu: once the round deregisters its RPC under the same
// lock, no sender can hold a reference, and a post-deregistration drain
// leaves the channel empty for the next round.
type roundState struct {
	ch    chan wire.Envelope
	dests []int32
	sweep []wire.Envelope
	timer *time.Timer
}

// getRound takes a round state from the node's pool, with the timer armed.
func (nd *Node) getRound() *roundState {
	rs, _ := nd.roundPool.Get().(*roundState)
	if rs == nil {
		rs = &roundState{ch: make(chan wire.Envelope, 4*nd.n)}
	}
	if rs.timer == nil {
		rs.timer = time.NewTimer(nd.opts.RetransmitEvery)
	} else {
		rs.timer.Reset(nd.opts.RetransmitEvery) // released drained and stopped
	}
	return rs
}

// putRound disarms and recycles a round state. The caller must already have
// deregistered the round's RPC from nd.pending.
func (nd *Node) putRound(rs *roundState) {
	if !rs.timer.Stop() {
		select {
		case <-rs.timer.C:
		default:
		}
	}
	for {
		select {
		case <-rs.ch: // late duplicates staged before deregistration
			continue
		default:
		}
		break
	}
	rs.dests = rs.dests[:0]
	for i := range rs.sweep {
		rs.sweep[i] = wire.Envelope{} // drop value references
	}
	rs.sweep = rs.sweep[:0]
	nd.roundPool.Put(rs)
}

// runRoundOpts is the fully general round executor; see runRound and
// roundOpts.
func (nd *Node) runRoundOpts(ctx context.Context, op uint64, req wire.Envelope, o roundOpts) (map[int32]wire.Envelope, error) {
	rpc := nd.newID()
	req.RPC = rpc
	req.Op = op
	quorum := o.quorum
	if quorum <= 0 {
		quorum = nd.quorum
	}

	rs := nd.getRound()
	nd.mu.Lock()
	if !nd.servingLocked() {
		state := nd.state
		nd.mu.Unlock()
		nd.putRound(rs)
		if state == stateClosed {
			return nil, ErrClosed
		}
		return nil, ErrCrashed
	}
	crashCh := nd.crashCh
	crashes := nd.ob.crashes.Load() // bumped only under nd.mu
	nd.pending[rpc] = rs.ch
	nd.mu.Unlock()
	defer func() {
		nd.mu.Lock()
		delete(nd.pending, rpc)
		nd.mu.Unlock()
		nd.putRound(rs)
	}()

	dests := rs.dests
	if o.to >= 0 {
		dests = append(dests, o.to)
	} else {
		for to := int32(0); to < int32(nd.n); to++ {
			dests = append(dests, to)
		}
	}
	rs.dests = dests

	acks := make(map[int32]wire.Envelope, nd.n)
	sweeps := 0
	for {
		sweeps++
		sweep := rs.sweep[:0]
		for _, to := range dests {
			e := req
			e.To = to
			sweep = append(sweep, e)
		}
		rs.sweep = sweep
		nd.ob.enqueue(crashes, sweep...)
	collect:
		for {
			select {
			case env := <-rs.ch:
				if _, dup := acks[env.From]; dup {
					continue
				}
				acks[env.From] = env
				if len(acks) >= quorum {
					if o.require >= 0 {
						if _, ok := acks[o.require]; !ok {
							continue
						}
					}
					nd.recordRound(op, sweeps*len(dests), sweeps-1)
					return acks, nil
				}
			case <-rs.timer.C:
				rs.timer.Reset(nd.opts.RetransmitEvery)
				break collect // retransmission sweep
			case <-crashCh:
				return nil, ErrCrashed
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// maxAckDepth returns the largest causal log depth reported by the
// acknowledgements, floored at the depth the request carried.
func maxAckDepth(acks map[int32]wire.Envelope, floor int) int {
	depth := floor
	for _, a := range acks {
		if int(a.Depth) > depth {
			depth = int(a.Depth)
		}
	}
	return depth
}

// maxAckSeq returns the highest sequence number among the acknowledged tags
// (Fig. 4 line 10: "select highest sn").
func maxAckSeq(acks map[int32]wire.Envelope) int64 {
	var max int64
	for _, a := range acks {
		if a.Tag.Seq > max {
			max = a.Tag.Seq
		}
	}
	return max
}

// bestAck returns the acknowledgement carrying the lexicographically highest
// tag (Fig. 4 line 35: "select v with highest [sn, pid]").
func bestAck(acks map[int32]wire.Envelope) wire.Envelope {
	var best wire.Envelope
	first := true
	for _, a := range acks {
		if first || best.Tag.Less(a.Tag) {
			best = a
			first = false
		}
	}
	return best
}
