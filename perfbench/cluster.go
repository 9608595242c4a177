package main

// The benchmark's system under test: an in-process 3-node mesh wired the
// way cmd/recmem-node wires one process — a nettcp mesh between the nodes,
// a persistent-algorithm core.Node over a stable.Storage engine, and a
// remote control port per node. Everything talks over loopback TCP with no
// injected delay, so latency is processor and storage time only.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"recmem/internal/core"
	"recmem/internal/nettcp"
	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/remote"
)

// clusterConfig selects the mesh shape.
type clusterConfig struct {
	n       int
	backend string // "mem" or "sharded"
	dir     string // root of the per-node store directories (sharded)
	tr      *tracer
	// staleReads: node 0 serves frozen reads (fault injection).
	staleReads bool
}

// meshNode is one node slot: its fixed addresses and store location, plus
// the live incarnation (mesh, store, node, control server).
type meshNode struct {
	id       int32
	meshAddr string
	ctrlAddr string
	dir      string
	mem      *stable.MemDisk // the mem backend's store outlives incarnations

	mesh *nettcp.Mesh
	raw  stable.Storage // the engine itself
	disk stable.Storage // raw, or its traced wrapper
	nd   *core.Node
	srv  *remote.Server

	// retired accumulates the counters of closed incarnations, so run
	// totals survive restarts.
	retired counters
}

// counters are the layers' own cumulative statistics, summed over a node's
// incarnations.
type counters struct {
	syncs, appended, evictions, compactions uint64 // ShardedDisk
	bursts, frames, deadlines               uint64 // remote.Server
}

func (c *counters) add(o counters) {
	c.syncs += o.syncs
	c.appended += o.appended
	c.evictions += o.evictions
	c.compactions += o.compactions
	c.bursts += o.bursts
	c.frames += o.frames
	c.deadlines += o.deadlines
}

// live reads the counters of the node's current incarnation.
func (n *meshNode) live() counters {
	var c counters
	if sd, ok := n.raw.(*stable.ShardedDisk); ok {
		c.syncs = uint64(sd.Syncs())
		c.appended = uint64(sd.AppendedRecords())
		c.evictions = uint64(sd.Evictions())
		c.compactions = uint64(sd.Compactions())
	}
	if n.srv != nil {
		c.bursts, c.frames = n.srv.WriterStats()
		_, _, c.deadlines = n.srv.DispatchStats()
	}
	return c
}

type cluster struct {
	cfg   clusterConfig
	ids   atomic.Uint64
	peers []string
	nodes []*meshNode
}

// startCluster boots every node and opens its control port.
func startCluster(cfg clusterConfig) (c *cluster, err error) {
	c = &cluster{cfg: cfg}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	for i := 0; i < cfg.n; i++ {
		n := &meshNode{id: int32(i), meshAddr: "127.0.0.1:0", ctrlAddr: "127.0.0.1:0"}
		if cfg.backend == "mem" {
			n.mem = stable.NewMemDisk(stable.Profile{})
		} else {
			n.dir = filepath.Join(cfg.dir, fmt.Sprintf("node%d", i))
			if err := os.MkdirAll(n.dir, 0o755); err != nil {
				return c, err
			}
		}
		c.nodes = append(c.nodes, n)
	}
	// Every mesh listens before any node starts, so the peer list is known.
	for _, n := range c.nodes {
		m, err := nettcp.Listen(n.id, n.meshAddr, nettcp.Options{})
		if err != nil {
			return c, err
		}
		n.mesh, n.meshAddr = m, m.Addr()
		c.peers = append(c.peers, n.meshAddr)
	}
	for _, n := range c.nodes {
		if err := c.boot(n); err != nil {
			return c, err
		}
	}
	return c, nil
}

// boot brings up one incarnation over an already-listening mesh: open the
// store, create the node, run the boot-time Crash+Recover of recmem-node,
// then serve the control port.
func (c *cluster) boot(n *meshNode) error {
	tr := c.cfg.tr
	n.mesh.SetPeers(c.peers)
	var err error
	end := tr.begin()
	if n.mem != nil {
		n.mem.Reopen()
		n.raw = n.mem
	} else {
		n.raw, err = stable.OpenBackend(c.cfg.backend, n.dir, stable.Profile{})
		if err != nil {
			return err
		}
	}
	end(span{Layer: "stable", Name: "OpenBackend", Node: n.id})

	var ep transport.Endpoint = n.mesh
	n.disk = n.raw
	deps := core.Deps{IDs: &c.ids}
	if tr != nil {
		ep = tr.wrapEndpoint(n.mesh)
		n.disk = tr.wrapStorage(n.id, n.raw)
		deps.LogMeter, deps.MsgMeter = tr.logs, tr.msgs
	}
	deps.Endpoint, deps.Storage = ep, n.disk

	end = tr.begin()
	n.nd, err = core.NewNode(n.id, c.cfg.n, core.Persistent,
		core.Options{RetransmitEvery: 100 * time.Millisecond}, deps)
	if err != nil {
		return err
	}
	end(span{Layer: "core", Name: "NewNode", Node: n.id})

	end = tr.begin()
	if !n.nd.Crash(nil) {
		return fmt.Errorf("node %d refused the boot crash", n.id)
	}
	end(span{Layer: "core", Name: "Crash", Node: n.id})
	end = tr.begin()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = n.nd.Recover(ctx, nil, nil)
	cancel()
	if err != nil {
		return fmt.Errorf("node %d boot recovery: %w", n.id, err)
	}
	end(span{Layer: "core", Name: "Recover", Node: n.id})

	var ln net.Listener
	if err := retry(func() (err error) {
		ln, err = net.Listen("tcp", n.ctrlAddr)
		return err
	}); err != nil {
		return err
	}
	n.srv = remote.Serve(ln, n.nd, remote.ServerOptions{OpTimeout: time.Minute,
		StaleReads: c.cfg.staleReads && n.id == 0})
	n.ctrlAddr = n.srv.Addr()
	return nil
}

// stop tears an incarnation down in recmem-node's shutdown order: control
// server, node, mesh, store.
func (c *cluster) stop(n *meshNode) {
	n.retired.add(n.live())
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
	if n.nd != nil {
		n.nd.Close()
		n.nd = nil
	}
	if n.mesh != nil {
		n.mesh.Close()
		n.mesh = nil
	}
	if n.raw != nil {
		_ = n.raw.Close()
		n.raw, n.disk = nil, nil
	}
}

// restart stops node i and boots a fresh incarnation on the same mesh and
// control addresses over the same store.
func (c *cluster) restart(i int) error {
	n := c.nodes[i]
	c.stop(n)
	if err := retry(func() (err error) {
		n.mesh, err = nettcp.Listen(n.id, n.meshAddr, nettcp.Options{})
		return err
	}); err != nil {
		return err
	}
	return c.boot(n)
}

// retry rebinds an address the previous incarnation just released; the
// kernel may take a moment to let go of it.
func retry(listen func() error) error {
	var err error
	for i := 0; i < 100; i++ {
		if err = listen(); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// totals sums every node's counters over all its incarnations so far.
func (c *cluster) totals() counters {
	var t counters
	for _, n := range c.nodes {
		t.add(n.retired)
		t.add(n.live())
	}
	return t
}

func (c *cluster) close() {
	for i := len(c.nodes) - 1; i >= 0; i-- {
		c.stop(c.nodes[i])
	}
}
