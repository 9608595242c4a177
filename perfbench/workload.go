package main

// The three workloads. All are closed-loop with a 50/50 read/write mix and
// 64-byte values that are unique per write (caller id + sequence number);
// register and operation choices come from generators seeded by --seed.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"recmem"
	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/remote"
)

const (
	nodes      = 3
	valueBytes = 64
	restarted  = 2 // the node restart probes and restart-namespace restart
)

// workload describes one benchmark workload.
type workload struct {
	name    string
	backend string
	// regs is the register namespace size; populate pre-writes all of it
	// into every node's store during setup.
	regs     int
	populate bool
	// setups is how many times a run sets the mesh up (setup_s is their
	// median); probes how many restarts of node 2 are timed under the
	// callers' load, in bursts between the timed phase's windows (zero: the
	// timed phase restarts on its own).
	setups, probes int
	// restartEvery restarts node 2 after every that many caller ops during
	// the timed phase (zero: never).
	restartEvery int64
	// callers lists the node each synchronous caller connects to; window>0
	// instead drives one connection to node 0 with that many futures in
	// flight.
	callers []int
	window  int
	// hot > 0 draws every op from a hot set of that many registers, which
	// slides to the next hot set of the namespace after every rotate picks
	// and wraps around. Sliding keeps each register's history short — the
	// atomicity checker's cost grows quadratically in one register's
	// operations — while the set of live registers stays fixed.
	hot    int
	rotate int64
	// staleReads makes node 0 serve frozen reads (remote's fault
	// injection), for the test that proves the history check fails.
	staleReads bool
}

var workloads = []workload{
	{name: "pipelined-mem", backend: "mem", regs: 512, hot: 8, rotate: 2048, setups: 21, probes: 121, window: 32},
	{name: "closed-durable", backend: "sharded", regs: 1000, setups: 61, probes: 301, callers: []int{0, 1}},
	{name: "restart-namespace", backend: "sharded", regs: 100000, populate: true, setups: 5,
		restartEvery: 300, callers: []int{0}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// regName names register i; popValue is the content setup pre-writes to it.
func regName(i int) string  { return "r" + strconv.Itoa(i) }
func popValue(i int) string { return "p" + strconv.Itoa(i) }
func popTag() tag.Tag       { return tag.Tag{Seq: 1} }
func padValue(b []byte) []byte {
	for len(b) < valueBytes {
		b = append(b, '.')
	}
	return b
}

// shortValue recovers the recorded identity of a read value: values are an
// identity padded with '.' to 64 bytes; the initial value ⊥ is empty.
func shortValue(v []byte) string { return string(bytes.TrimRight(v, ".")) }

// phases of a run, as seen by the callers.
const (
	phaseRamp int32 = iota
	phaseTimed
	phaseStop
)

// tally is one caller's accounting of the timed phase.
type tally struct {
	attempted, failed int64
	wops              []int64 // completed ops per window
	wlat, rlat        []int64 // latencies, ns
}

// run is one set-up mesh plus the clients and recorders driving it.
type run struct {
	w       workload
	seed    int64
	dir     string
	tr      *tracer
	c       *cluster
	recs    *recorders
	callers []*caller
	names   []string

	phase atomic.Int32
	// finished counts every op that returned, in any phase: the progress
	// the stall watchdog looks for.
	finished atomic.Int64
	// win is the timed phase's current window; callers book each finished
	// op into it.
	win     atomic.Int32
	windows int
	// popDone stamps the end of population (the seed history's anchor).
	popDone time.Time

	restartMS []float64
	restartMu sync.Mutex
}

// setup populates the stores (restart-namespace), boots the mesh and
// connects the callers.
func (r *run) setup() error {
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	if r.w.populate {
		if err := populate(r.dir, r.w.regs); err != nil {
			return err
		}
		r.popDone = time.Now()
	}
	c, err := startCluster(clusterConfig{n: nodes, backend: r.w.backend, dir: r.dir, tr: r.tr,
		staleReads: r.w.staleReads})
	if err != nil {
		return err
	}
	r.c = c
	r.recs = newRecorders(nodes)
	nodesOf := r.w.callers
	if r.w.window > 0 {
		nodesOf = []int{0}
	}
	for i, node := range nodesOf {
		c, err := r.newCaller(node, int64(i))
		if err != nil {
			return err
		}
		r.callers = append(r.callers, c)
	}
	return nil
}

// warmUp writes every register of a small namespace once, so the timed
// phase starts on a mesh whose registers all exist.
func (r *run) warmUp(ctx context.Context) error {
	if r.w.populate {
		return nil
	}
	for i := 0; i < r.w.regs; i++ {
		if err := r.callers[i%len(r.callers)].syncOp(ctx, i, true); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (r *run) teardown() {
	for _, c := range r.callers {
		c.cli.Close()
	}
	r.callers = nil
	if r.c != nil {
		r.c.close()
		r.c = nil
	}
	_ = os.RemoveAll(r.dir)
}

// populate writes every register's anchor value into each node's store
// through the batched durability path, in the core's written/ encoding, so
// the stores hold a real replicated register namespace.
func populate(dir string, regs int) error {
	const batch = 1024
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			errs <- func() error {
				d, err := stable.OpenBackend("sharded", fmt.Sprintf("%s/node%d", dir, i), stable.Profile{})
				if err != nil {
					return err
				}
				recs := make([]stable.Record, 0, batch)
				for from := 0; from < regs; from += batch {
					recs = recs[:0]
					for j := from; j < from+batch && j < regs; j++ {
						recs = append(recs, stable.Record{Name: core.WrittenRecordName(regName(j)),
							Data: core.EncodeWrittenPayload(popTag(), padValue([]byte(popValue(j))))})
					}
					if err := d.StoreBatch(recs); err != nil {
						d.Close()
						return err
					}
				}
				return d.Close()
			}()
		}(i)
	}
	var first error
	for i := 0; i < nodes; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// caller is one client connection and the recorder of its history.
type caller struct {
	r     *run
	node  int
	cli   *remote.Client
	rec   *history.ClientRecorder
	rng   *rand.Rand
	regs  []*recmem.Register // handle cache of a small namespace
	seq   int64
	picks int64
	buf   []byte
	tally tally
	total atomic.Int64 // timed ops, for restart spacing

	// Per-op outcome captures, bound once into opts.
	wit  recmem.Tag
	ep   uint64
	op   recmem.OpID
	opts []recmem.OpOption

	// kick, when set, is signalled after every restartEvery timed ops.
	kick chan struct{}
}

func (r *run) newCaller(node int, id int64) (*caller, error) {
	cli, err := remote.Dial(r.c.nodes[node].ctrlAddr, remote.Options{})
	if err != nil {
		return nil, err
	}
	c := &caller{r: r, node: node, cli: cli, rec: r.recs.forNode(node),
		rng: rand.New(rand.NewSource(r.seed*1000 + id)), buf: make([]byte, 0, valueBytes),
		tally: tally{wops: make([]int64, r.windows)}}
	if r.w.regs <= 10000 {
		c.regs = make([]*recmem.Register, r.w.regs)
	}
	c.seq = id << 40 // caller id + sequence: unique across the run's callers
	c.opts = []recmem.OpOption{recmem.WithWitness(&c.wit), recmem.WithEpoch(&c.ep), recmem.WithCost(&c.op)}
	return c, nil
}

// handle resolves register i's name and client handle. A large namespace
// is not cached, so the client's heap does not grow with the registers a
// run happens to touch.
func (c *caller) handle(i int) (string, *recmem.Register) {
	name := c.r.names[i]
	if c.regs == nil {
		return name, c.cli.Register(name)
	}
	if c.regs[i] == nil {
		c.regs[i] = c.cli.Register(name)
	}
	return name, c.regs[i]
}

// nextValue fills c.buf with a fresh unique value and returns its identity.
func (c *caller) nextValue() string {
	c.seq++
	c.buf = append(c.buf[:0], 'v')
	c.buf = strconv.AppendInt(c.buf, c.seq, 36)
	id := string(c.buf)
	c.buf = padValue(c.buf)
	return id
}

// pick draws the next operation: a register and whether it writes.
func (c *caller) pick() (int, bool) {
	w := c.r.w
	var i int
	if w.hot > 0 {
		i = int(c.picks/w.rotate)%(w.regs/w.hot)*w.hot + c.rng.Intn(w.hot)
	} else {
		i = c.rng.Intn(w.regs)
	}
	c.picks++
	return i, c.rng.Intn(2) == 0
}

// account books one finished op, when it finished inside the timed phase.
func (c *caller) account(write bool, start time.Time, end time.Time, err error) {
	if c.r.phase.Load() != phaseTimed {
		return
	}
	t := &c.tally
	t.attempted++
	if err != nil {
		t.failed++
		return
	}
	t.wops[c.r.win.Load()]++
	lat := int64(end.Sub(start))
	if write {
		t.wlat = append(t.wlat, lat)
	} else {
		t.rlat = append(t.rlat, lat)
	}
	if n := c.total.Add(1); c.kick != nil && n%c.r.w.restartEvery == 0 {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// syncOp runs one synchronous operation and records it.
func (c *caller) syncOp(ctx context.Context, i int, write bool) error {
	name, reg := c.handle(i)
	var id uint64
	var val []byte
	var err error
	start := time.Now()
	if write {
		id = c.rec.Invoke(history.Write, name, c.nextValue(), false)
		err = reg.Write(ctx, c.buf, c.opts...)
	} else {
		id = c.rec.Invoke(history.Read, name, "", false)
		val, err = reg.Read(ctx, c.opts...)
	}
	end := time.Now()
	c.finish(id, write, val, err)
	c.account(write, start, end, err)
	c.r.tr.client(c.node, uint64(c.op), name, write, start, end)
	return err
}

// finish records an op's outcome in the history.
func (c *caller) finish(id uint64, write bool, val []byte, err error) {
	c.r.finished.Add(1)
	switch {
	case err == nil:
		v := ""
		if !write {
			v = shortValue(val)
		}
		c.rec.Return(id, v, c.wit, c.ep)
	case write:
		c.rec.Abort(id, history.AbortUnknown)
	default:
		c.rec.Abort(id, history.AbortRejected)
	}
}

// loop drives synchronous ops until the run stops.
func (c *caller) loop(ctx context.Context) {
	for c.r.phase.Load() != phaseStop {
		i, write := c.pick()
		_ = c.syncOp(ctx, i, write)
	}
}

// inflight is one submitted future of the window loop.
type inflight struct {
	id    uint64
	reg   string
	write bool
	start time.Time
	wf    *recmem.WriteFuture
	rf    *recmem.ReadFuture
}

// windowLoop keeps window futures in flight on one connection, consuming
// completions in submission order.
func (c *caller) windowLoop(ctx context.Context, window int) {
	ring := make([]inflight, window)
	head, n := 0, 0
	for {
		stopping := c.r.phase.Load() == phaseStop
		if !stopping && n < window {
			c.submit(&ring[(head+n)%window])
			n++
			continue
		}
		if n == 0 {
			return
		}
		c.complete(ctx, &ring[head])
		head = (head + 1) % window
		n--
	}
}

func (c *caller) submit(f *inflight) {
	i, write := c.pick()
	name, reg := c.handle(i)
	*f = inflight{reg: name, write: write, start: time.Now()}
	var err error
	if write {
		f.id = c.rec.Invoke(history.Write, name, c.nextValue(), true)
		f.wf, err = reg.SubmitWrite(c.buf)
	} else {
		f.id = c.rec.Invoke(history.Read, name, "", true)
		f.rf, err = reg.SubmitRead()
	}
	if err != nil {
		c.finish(f.id, write, nil, err)
		c.account(write, f.start, time.Now(), err)
		f.wf, f.rf = nil, nil
	}
}

func (c *caller) complete(ctx context.Context, f *inflight) {
	if f.wf == nil && f.rf == nil {
		return // failed at submission, already booked
	}
	var val []byte
	var err error
	var op uint64
	if f.write {
		err = f.wf.Wait(ctx)
		c.wit, _ = f.wf.TagWitness()
		c.ep, _ = f.wf.Incarnation()
		op = uint64(f.wf.Op())
	} else {
		val, err = f.rf.Wait(ctx)
		c.wit, _ = f.rf.TagWitness()
		c.ep, _ = f.rf.Incarnation()
		op = uint64(f.rf.Op())
	}
	end := time.Now()
	c.finish(f.id, f.write, val, err)
	c.account(f.write, f.start, end, err)
	c.r.tr.client(c.node, op, f.reg, f.write, f.start, end)
}

// restartProbe restarts node 2 and times it from the stop to the first read
// a fresh connection gets served by the new incarnation; the restart is a
// crash and a recovery in node 2's recorded history.
func (r *run) restartProbe(ctx context.Context, rng *rand.Rand) error {
	rec := r.recs.forNode(restarted)
	start := time.Now()
	r.c.stop(r.c.nodes[restarted])
	rec.Crash()
	if err := r.c.restart(restarted); err != nil {
		return err
	}
	rec.Recover()
	cli, err := remote.Dial(r.c.nodes[restarted].ctrlAddr, remote.Options{RedialAttempts: -1})
	if err != nil {
		return err
	}
	defer cli.Close()
	name := r.names[rng.Intn(r.w.regs)]
	var wit recmem.Tag
	var ep uint64
	var op recmem.OpID
	readStart := time.Now()
	id := rec.Invoke(history.Read, name, "", false)
	val, err := cli.Register(name).Read(ctx, recmem.WithWitness(&wit), recmem.WithEpoch(&ep), recmem.WithCost(&op))
	end := time.Now()
	if err != nil {
		rec.Abort(id, history.AbortRejected)
		return fmt.Errorf("first read after restart: %w", err)
	}
	rec.Return(id, shortValue(val), wit, ep)
	r.tr.client(restarted, uint64(op), name, false, readStart, end)
	r.restartMu.Lock()
	r.restartMS = append(r.restartMS, float64(end.Sub(start))/1e6)
	r.restartMu.Unlock()
	return nil
}
