package main

// Per-layer metrics of a traced run, computed from the spans the wrappers
// recorded plus the counters the layers already expose.

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
)

// layerInput is everything a traced run hands to the analysis.
type layerInput struct {
	tr     *tracer
	t0, t1 int64 // the timed phase, in tracer time
	c0, c1 counters
}

// clientOp is one client call of the timed phase with its linked stages.
type clientOp struct {
	s         span
	write     bool
	firstSend int64 // serving node's first send for the op (0: none)
	propSend  int64 // serving node's first W send (writes)
	prelog    *span // the writer's writing/<reg> store
}

// bootCall is one lifecycle call of one node.
type bootCall struct {
	name string
	node int32
}

// layerReport is the analysis result: the metrics plus the stage-accounting
// figures the closed-durable gate checks.
type layerReport struct {
	metrics map[string]float64
	// tiling is Σ(ingress+query+pre-log+propagate) / Σ client latency over
	// the writes whose stages were all found; linked is their share of all
	// writes.
	tiling, linked float64
	spans          []span // the op-linked spans, for the trace file
}

func analyze(in layerInput) layerReport {
	spans := in.tr.snapshot()
	inWindow := func(s span) bool { return s.End >= in.t0 && s.End <= in.t1 }

	// Client calls of the timed phase, by op id.
	ops := make(map[uint64]*clientOp)
	var order []*clientOp
	for _, s := range spans {
		if s.Layer == "remote" && s.Op != 0 && inWindow(s) {
			c := &clientOp{s: s, write: s.Name == "Register.Write"}
			ops[s.Op] = c
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].s.Start < order[j].s.Start })
	byReg := make(map[string][]*clientOp)
	for _, c := range order {
		byReg[c.s.Reg] = append(byReg[c.s.Reg], c)
	}

	var (
		envs, frames, bytes float64
		storeLat, getLat    []int64
		reopen, recover     []int64
		boots               = make(map[bootCall]int) // calls seen per node
	)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Layer == "nettcp":
			if c := ops[s.Op]; c != nil && s.Node == c.s.Node {
				if c.firstSend == 0 || s.Start < c.firstSend {
					c.firstSend = s.Start
				}
				if s.Msg == "W" && (c.propSend == 0 || s.Start < c.propSend) {
					c.propSend = s.Start
				}
			}
			if inWindow(*s) && s.To != s.Node {
				envs++
				bytes += float64(s.Bytes)
				if s.N > 0 {
					frames++
				}
			}
		case s.Layer == "stable" && (s.Name == "Store" || s.Name == "StoreBatch"):
			s.Op = linkStore(byReg[s.Reg], s.Start)
			if inWindow(*s) {
				storeLat = append(storeLat, s.End-s.Start)
			}
			if c := ops[s.Op]; c != nil && c.write && s.Node == c.s.Node &&
				strings.HasPrefix(s.Record, "writing/") && c.prelog == nil {
				c.prelog = s
			}
		case s.Layer == "stable" && s.Name == "Retrieve":
			s.Op = linkStore(byReg[s.Reg], s.Start)
			if inWindow(*s) {
				getLat = append(getLat, s.End-s.Start)
			}
		}
		// Restart costs: every OpenBackend / Crash+Recover of a node after
		// its cold boot.
		if s.Name == "OpenBackend" || s.Name == "Crash" || s.Name == "Recover" {
			k := bootCall{s.Name, s.Node}
			if boots[k]++; boots[k] > 1 {
				switch s.Name {
				case "OpenBackend":
					reopen = append(reopen, s.End-s.Start)
				case "Crash":
					recover = append(recover, s.End-s.Start)
				case "Recover":
					// Crash precedes Recover in every boot; fold the pair.
					recover[len(recover)-1] += s.End - s.Start
				}
			}
		}
	}

	// Stage accounting and the core meters, per client op.
	var (
		ingress, query, propagate []int64
		nOps, writes, reads       float64
		rounds, retrans           float64
		wlogs, rlogs              float64
		linked, sumStages, sumLat float64
	)
	for _, c := range order {
		nOps++
		tr := in.tr.msgs.Trace(c.s.Op)
		rounds += float64(tr.Rounds)
		retrans += float64(tr.Retransmissions)
		depth := float64(in.tr.logs.Cost(c.s.Op).CausalDepth)
		if c.write {
			writes++
			wlogs += depth
		} else {
			reads++
			rlogs += depth
		}
		if c.firstSend == 0 {
			continue // coalesced into another op's protocol execution
		}
		ingress = append(ingress, c.firstSend-c.s.Start)
		if !c.write || c.prelog == nil || c.propSend == 0 {
			continue
		}
		q := c.prelog.Start - c.firstSend
		p := c.s.End - c.propSend
		query = append(query, q)
		propagate = append(propagate, p)
		linked++
		sumStages += float64(c.firstSend-c.s.Start) + float64(q) + float64(c.prelog.End-c.prelog.Start) + float64(p)
		sumLat += float64(c.s.End - c.s.Start)
	}

	d := in.c1.minus(in.c0)
	m := map[string]float64{
		"remote.ingress_p50_us":         pct(ingress, 0.50) / 1e3,
		"remote.reply_frames_per_burst": ratio(float64(d.frames), float64(d.bursts)),
		"remote.deadline_expiries":      float64(d.deadlines),
		"core.query_p50_us":             pct(query, 0.50) / 1e3,
		"core.propagate_p50_us":         pct(propagate, 0.50) / 1e3,
		"core.rounds_per_op":            ratio(rounds, nOps),
		"core.retransmits_per_op":       ratio(retrans, nOps),
		"core.logs_per_write":           ratio(wlogs, writes),
		"core.logs_per_read":            ratio(rlogs, reads),
		"core.recover_p50_ms":           pct(recover, 0.50) / 1e6,
		"nettcp.msgs_per_op":            ratio(envs, nOps),
		"nettcp.bytes_per_op":           ratio(bytes, nOps),
		"nettcp.envs_per_batch":         ratio(envs, frames),
		"stable.fsyncs_per_op":          ratio(float64(d.syncs), nOps),
		"stable.records_per_fsync":      ratio(float64(d.appended), float64(d.syncs)),
		"stable.storebatch_p50_us":      pct(storeLat, 0.50) / 1e3,
		"stable.storebatch_p99_us":      pct(storeLat, 0.99) / 1e3,
		"stable.retrieves_per_op":       ratio(float64(len(getLat)), nOps),
		"stable.retrieve_p50_us":        pct(getLat, 0.50) / 1e3,
		"stable.evictions_per_op":       ratio(float64(d.evictions), nOps),
		"stable.compactions":            float64(d.compactions),
		"stable.reopen_p50_ms":          pct(reopen, 0.50) / 1e6,
	}
	rep := layerReport{metrics: m, tiling: ratio(sumStages, sumLat), linked: ratio(linked, writes)}
	rep.spans = sampleSpans(in, spans, order)
	return rep
}

// linkStore attributes a storage call on a register to the client op on
// that register whose call was open when the store started (the latest
// such op); 0 when none was.
func linkStore(regOps []*clientOp, at int64) uint64 {
	i := sort.Search(len(regOps), func(i int) bool { return regOps[i].s.Start > at }) - 1
	for lim := 0; i >= 0 && lim < 64; i, lim = i-1, lim+1 {
		if regOps[i].s.End >= at {
			return regOps[i].s.Op
		}
	}
	return 0
}

// sampleSpans keeps the spans of the timed phase's first client ops, adds
// each one's derived stage spans and core meter readings, and keeps every
// lifecycle span: enough to follow ops end to end without writing hundreds
// of megabytes.
func sampleSpans(in layerInput, spans []span, order []*clientOp) []span {
	const sampleOps = 2000
	keep := make(map[uint64]bool)
	var out []span
	for i, c := range order {
		if i == sampleOps {
			break
		}
		op := c.s.Op
		keep[op] = true
		out = append(out, span{Layer: "core", Name: "meters", Node: c.s.Node, Op: op, Reg: c.s.Reg,
			Rounds: in.tr.msgs.Trace(op).Rounds, LogDepth: in.tr.logs.Cost(op).CausalDepth,
			Start: c.s.End, End: c.s.End})
		if c.firstSend == 0 {
			continue
		}
		out = append(out, span{Layer: "remote", Name: "ingress", Node: c.s.Node, Op: op, Reg: c.s.Reg,
			Start: c.s.Start, End: c.firstSend})
		if c.prelog != nil && c.propSend != 0 {
			out = append(out,
				span{Layer: "core", Name: "query", Node: c.s.Node, Op: op, Reg: c.s.Reg,
					Start: c.firstSend, End: c.prelog.Start},
				span{Layer: "core", Name: "propagate", Node: c.s.Node, Op: op, Reg: c.s.Reg,
					Start: c.propSend, End: c.s.End})
		}
	}
	for _, s := range spans {
		if keep[s.Op] || s.Layer == "core" || s.Name == "OpenBackend" {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the host stamp and then the spans as JSON lines.
func writeSpans(path string, host []byte, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]json.RawMessage{"host": host}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (c counters) minus(o counters) counters {
	return counters{
		syncs: c.syncs - o.syncs, appended: c.appended - o.appended,
		evictions: c.evictions - o.evictions, compactions: c.compactions - o.compactions,
		bursts: c.bursts - o.bursts, frames: c.frames - o.frames, deadlines: c.deadlines - o.deadlines,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct returns the p-quantile (nearest rank) of xs, sorting it in place.
func pct(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return float64(xs[int(p*float64(len(xs)-1))])
}
