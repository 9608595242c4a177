// Command perfbench is recmem's end-to-end benchmark. It boots an
// in-process 3-node mesh (real nettcp between the nodes, a real remote
// control port per node), drives one workload from this process with at
// most 2 caller goroutines and 2 client connections, checks the recorded
// history for persistent atomicity, and prints its metrics. With --trace 1
// it runs the workload untraced and then traced, and prints per-layer
// metrics instead. See README.md.
//
//	perfbench --workload closed-durable --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The command exits non-zero when the history check (or, traced, the stage
// accounting) fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// watchdog bounds a whole run, set-up and history check included.
const watchdog = 170 * time.Second

// heapLimit is far above any workload's need; a run that gets there has a
// leak, and it stops before it can starve the machine it shares.
const heapLimit = 2 << 30

func memoryGuard() {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(250 * time.Millisecond) {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > heapLimit {
			fmt.Fprintf(os.Stderr, "perfbench: heap reached %d MiB, stopping\n", v>>20)
			os.Exit(1)
		}
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "pipelined-mem, closed-durable or restart-namespace")
		seed    = flag.Int64("seed", 1, "seed of the register and operation choices")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: per-layer metrics from an untraced and a traced run")
		out     = flag.String("out", ".bench_build", "directory for stores and trace files")
		commit  = flag.String("commit", "unknown", "source revision, for the host stamp")
		tmpfs   = flag.Bool("private-tmpfs", false, "mount a tmpfs over the store directory; only in a mount namespace of the process's own")
	)
	flag.Parse()
	go memoryGuard()
	// A run that hangs must still end, and end as a failure.
	time.AfterFunc(watchdog, func() { dumpAndExit(fmt.Sprintf("no result after %v", watchdog)) })
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := benchmark(w, *seed, *seconds, *trace == 1, *tmpfs, *out, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func benchmark(w workload, seed int64, seconds float64, traced, tmpfs bool, out, commit string) (*result, error) {
	base, err := filepath.Abs(filepath.Join(out, "data"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	if tmpfs {
		if unmount := mountTmpfs(base); unmount != nil {
			defer unmount()
		}
	}
	dir := filepath.Join(base, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stamp, _ := json.Marshal(map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"fs": fsType(dir), "commit": commit, "seed": seed, "workload": w.name, "trace": traced,
	})
	fmt.Printf("host %s\n", stamp)
	fmt.Println("mesh: 3 nodes over loopback TCP with no injected delay; latency is processor and storage time only")

	if !traced {
		m, err := measure(w, seed, seconds, dir, nil, w.setups)
		if err != nil {
			return nil, err
		}
		return m.endToEnd(), nil
	}

	plain, err := measure(w, seed, seconds/2, dir, nil, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := measure(w, seed, seconds/2, dir, tr, 1)
	if err != nil {
		return nil, err
	}
	rep := analyze(layerInput{tr: tr, t0: m.t0, t1: m.t1, c0: m.c0, c1: m.c1})
	traceDir := filepath.Join(out, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spanFile, stamp, rep.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d op-linked spans in %s\n", len(rep.spans), spanFile)

	metrics := make(map[string]metric, len(rep.metrics)+3)
	for k, v := range rep.metrics {
		metrics[k] = metric{v, unitOf(k)}
	}
	metrics["trace.overhead_frac"] = metric{1 - ratio(m.opsPerS(), plain.opsPerS()), "frac"}
	metrics["trace.stage_sum_frac"] = metric{rep.tiling, "frac"}
	metrics["history.check_s"] = metric{m.check.Seconds(), "s"}
	correct := plain.checkErr == nil && m.checkErr == nil
	if w.name == "closed-durable" {
		// Stage accounting: ingress + query + pre-log + propagate must tile
		// the client's write span, so a stage that goes missing shows.
		fmt.Printf("stage accounting: %.3f of traced write latency, %.0f%% of writes linked\n",
			rep.tiling, 100*rep.linked)
		if rep.linked < 0.9 || rep.tiling < 0.9 || rep.tiling > 1.1 {
			fmt.Println("stage accounting FAILED: stages do not tile the write latency within 10%")
			correct = false
		}
	}
	printMetrics(metrics)
	return &result{Correct: correct, Attempted: plain.attempted + m.attempted,
		Failed: plain.failed + m.failed, Metrics: metrics}, nil
}

// unitOf derives a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"bytes_per_op", "B"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_frac", "frac"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// measured is one run's raw figures.
type measured struct {
	setup             []float64 // seconds per setup
	ops               int64
	attempted, failed int64
	elapsed           time.Duration
	winOps            []float64 // ops per second in each window
	writes, reads     int
	wp50, wp99        float64 // write latency quantiles, ns
	rp50, rp99        float64
	wp90, wp999       float64
	rp90, rp999       float64
	cpu               time.Duration
	mallocs           uint64
	heapBytes         uint64
	restartMS         []float64
	check             time.Duration
	checkErr          error
	t0, t1            int64 // timed phase in tracer time (traced runs)
	c0, c1            counters
}

func (m *measured) opsPerS() float64 { return ratio(float64(m.ops), m.elapsed.Seconds()) }

func (m *measured) endToEnd() *result {
	n := float64(m.ops)
	ms := map[string]metric{
		"setup_s":        {median(m.setup), "s"},
		"ops_per_s":      {median(m.winOps), "1/s"},
		"write_p50_us":   {m.wp50 / 1e3, "us"},
		"write_p90_us":   {m.wp90 / 1e3, "us"},
		"read_p50_us":    {m.rp50 / 1e3, "us"},
		"read_p90_us":    {m.rp90 / 1e3, "us"},
		"cpu_us_per_op":  {ratio(float64(m.cpu.Microseconds()), n), "us"},
		"allocs_per_op":  {ratio(float64(m.mallocs), n), "count"},
		"heap_mb":        {float64(m.heapBytes) / (1 << 20), "MB"},
		"restart_p50_ms": {median(m.restartMS), "ms"},
	}
	printMetrics(ms)
	fmt.Printf("  samples: %d windows of %v, %d writes, %d reads, %d restarts\n",
		len(m.winOps), windowTime, m.writes, m.reads, len(m.restartMS))
	fmt.Printf("  write us: p99 %.1f, p99.9 %.1f; read us: p99 %.1f, p99.9 %.1f (not gated)\n",
		m.wp99/1e3, m.wp999/1e3, m.rp99/1e3, m.rp999/1e3)
	if restarts := append([]float64(nil), m.restartMS...); len(restarts) > 0 {
		sort.Float64s(restarts)
		q := func(p float64) float64 { return restarts[int(p*float64(len(restarts)-1))] }
		fmt.Printf("  restart ms: p10 %.1f, p25 %.1f, p50 %.1f, p75 %.1f, p90 %.1f\n",
			q(0.10), q(0.25), q(0.50), q(0.75), q(0.90))
	}
	fmt.Printf("  %-32s %14.6f frac\n", "failed_frac", ratio(float64(m.failed), float64(m.attempted)))
	fmt.Printf("  %-32s %14.4f s (not gated)\n", "history.check_s", m.check.Seconds())
	if m.checkErr != nil {
		fmt.Println("history check FAILED:", m.checkErr)
	}
	return &result{Correct: m.checkErr == nil, Attempted: m.attempted, Failed: m.failed, Metrics: ms}
}

// measure sets the mesh up setups times (keeping the last), warms it,
// restarts node 2 for the probes, runs the timed phase, checks the history
// and reads the live heap.
func measure(w workload, seed int64, seconds float64, dir string, tr *tracer, setups int) (*measured, error) {
	r := &run{w: w, seed: seed, dir: dir, tr: tr, names: make([]string, w.regs),
		windows: max(1, int(math.Round(seconds/windowTime.Seconds())))}
	for i := range r.names {
		r.names[i] = regName(i)
	}
	m := &measured{}
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := r.setup(); err != nil {
			r.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		if i < setups-1 {
			r.teardown()
		}
	}
	defer r.teardown()
	ctx := context.Background()
	callers := r.callers
	if err := r.warmUp(ctx); err != nil {
		return nil, err
	}

	probeRng := rand.New(rand.NewSource(seed*1000 + 999))
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			if w.window > 0 {
				c.windowLoop(ctx, w.window)
			} else {
				c.loop(ctx)
			}
		}(c)
	}
	stopWatch := make(chan struct{})
	stopWatching := sync.OnceFunc(func() { close(stopWatch) })
	defer stopWatching()
	go r.watchProgress(stopWatch)
	stopRestarts := make(chan struct{})
	restarterDone := make(chan error, 1)
	if w.restartEvery > 0 {
		callers[0].kick = make(chan struct{}, 1)
		go func() { restarterDone <- r.restarter(ctx, callers[0].kick, stopRestarts, probeRng) }()
	} else {
		restarterDone <- nil
	}

	// Restart probes run under the workload's own load: the peers keep
	// sending to node 2, so a restart is not timed against links that sat
	// idle since the previous incarnation died. Untraced, the probes run in
	// equal bursts before each window of the timed phase, with the clock
	// stopped, so their median averages the host's drift over the whole run
	// as the other figures do; a burst packed into one moment takes that
	// moment's noise whole. Traced, they all run before the timed phase, so
	// the traced counters hold no restart traffic.
	spread := tr == nil && w.probes > 0
	bursts := 1
	if spread {
		bursts = r.windows
	}
	probeBurst := func(k int) error {
		for i := w.probes * k / bursts; i < w.probes*(k+1)/bursts; i++ {
			if err := r.restartProbe(ctx, probeRng); err != nil {
				return fmt.Errorf("restart probe: %w", err)
			}
		}
		return nil
	}

	// The timed phase is cut into windows. ops_per_s is the median over the
	// windows, so a burst of noise from the host that covers a few of them
	// does not move it; the other figures pool every window.
	window := time.Duration(seconds / float64(r.windows) * float64(time.Second))
	starts, ends := make([]mark, r.windows), make([]mark, r.windows)
	for k := 0; k < r.windows; k++ {
		if k < bursts {
			if err := probeBurst(k); err != nil {
				r.phase.Store(phaseStop)
				wg.Wait()
				return nil, err
			}
			if k == 0 {
				time.Sleep(rampTime)
			} else {
				time.Sleep(settleTime)
			}
		}
		if k == 0 && tr != nil {
			m.c0 = r.c.totals()
			m.t0 = tr.now()
		}
		r.win.Store(int32(k))
		if k == 0 || spread {
			starts[k] = takeMark()
			r.phase.Store(phaseTimed)
		} else {
			starts[k] = ends[k-1]
		}
		time.Sleep(time.Until(starts[k].at.Add(window)))
		if k == r.windows-1 {
			r.phase.Store(phaseStop)
		} else if spread {
			r.phase.Store(phaseRamp)
		}
		ends[k] = takeMark()
	}
	if tr != nil {
		m.t1 = tr.now()
	}
	close(stopRestarts)
	restartErr := <-restarterDone
	wg.Wait()
	stopWatching()
	if restartErr != nil {
		return nil, fmt.Errorf("restart: %w", restartErr)
	}
	if tr != nil {
		m.c1 = r.c.totals()
	}

	m.winOps = make([]float64, r.windows)
	for k := range starts {
		m.elapsed += ends[k].at.Sub(starts[k].at)
		m.cpu += ends[k].cpu - starts[k].cpu
		m.mallocs += ends[k].mallocs - starts[k].mallocs
	}
	var wlat, rlat []int64
	for _, c := range callers {
		t := &c.tally
		for k, n := range t.wops {
			m.winOps[k] += float64(n)
			m.ops += n
		}
		m.attempted += t.attempted
		m.failed += t.failed
		wlat = append(wlat, t.wlat...)
		rlat = append(rlat, t.rlat...)
		c.tally = tally{}
	}
	for k := range m.winOps {
		m.winOps[k] /= ends[k].at.Sub(starts[k].at).Seconds()
	}
	// Latencies are summarized right away: the samples must not count
	// toward the live heap measured below.
	m.writes, m.reads = len(wlat), len(rlat)
	m.wp50, m.wp90, m.wp99, m.wp999 = pct(wlat, 0.50), pct(wlat, 0.90), pct(wlat, 0.99), pct(wlat, 0.999)
	m.rp50, m.rp90, m.rp99, m.rp999 = pct(rlat, 0.50), pct(rlat, 0.90), pct(rlat, 0.99), pct(rlat, 0.999)
	m.restartMS = r.restartMS
	if m.ops == 0 {
		return nil, fmt.Errorf("no operation completed in the timed phase")
	}

	checkStart := time.Now()
	m.checkErr = r.recs.check(w.populate, r.popDone)
	m.check = time.Since(checkStart)

	// The live heap of the mesh and its clients, as the timed phase left
	// them: the recorded histories are dropped first.
	r.recs = nil
	for _, c := range callers {
		c.rec = nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapBytes = ms.HeapAlloc
	return m, nil
}

// rampTime lets the callers reach steady state before the timed phase;
// settleTime lets them settle after a burst of restart probes, before the
// next window; windowTime is the length of one measurement window.
const (
	rampTime   = 500 * time.Millisecond
	settleTime = 250 * time.Millisecond
	windowTime = time.Second
)

// mark is the process's state at a window boundary.
type mark struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

var mallocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func takeMark() mark {
	metrics.Read(mallocSample)
	return mark{at: time.Now(), cpu: cpuTime(), mallocs: mallocSample[0].Value.Uint64()}
}

// stallLimit is how long the callers may go without any op returning
// before the run is declared stuck.
const stallLimit = 15 * time.Second

// watchProgress ends the run as a failure, with every goroutine's stack,
// when no op returns for stallLimit: a mesh that stops answering is a
// defect to report, not a run to wait out.
func (r *run) watchProgress(stop <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last, since := r.finished.Load(), time.Now()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			if n := r.finished.Load(); n != last {
				last, since = n, now
			} else if now.Sub(since) > stallLimit {
				dumpAndExit(fmt.Sprintf("no operation returned for %v; the mesh is stuck", stallLimit))
			}
		}
	}
}

// dumpAndExit fails the run with every goroutine's stack on stderr.
func dumpAndExit(why string) {
	buf := make([]byte, 1<<22)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(os.Stderr, "perfbench: %s; goroutines:\n%s\n", why, buf)
	os.Exit(1)
}

// restarter restarts node 2 each time the caller signals another
// restartEvery ops, until stop closes.
func (r *run) restarter(ctx context.Context, kick <-chan struct{}, stop <-chan struct{}, rng *rand.Rand) error {
	for {
		select {
		case <-stop:
			return nil
		case <-kick:
			if err := r.restartProbe(ctx, rng); err != nil {
				return err
			}
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
