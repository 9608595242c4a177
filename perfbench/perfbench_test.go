package main

import (
	"path/filepath"
	"testing"
	"time"

	"recmem/internal/nettcp"
	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/internal/wire"
)

type fakeScanner struct{}

func (fakeScanner) Scan(string, func(string) error) error { return nil }

type fakeDeleter struct{}

func (fakeDeleter) Delete(string) error { return nil }

type fakeStats struct{}

func (fakeStats) Compactions() int64 { return 0 }
func (fakeStats) Tombstones() int64  { return 0 }

// implements reports which optional storage interfaces st has.
func implements(st stable.Storage) (scan, del, stats bool) {
	_, scan = st.(stable.Scanner)
	_, del = st.(stable.Deleter)
	_, stats = st.(stable.CompactionStats)
	return
}

// The storage wrapper must expose exactly the optional interfaces of the
// engine it wraps, for every combination, or the traced run would take
// other code paths than the untraced one.
func TestStorageWrapperForwardsOptionalInterfaces(t *testing.T) {
	// plain hides MemDisk's Scan: only the Storage methods remain.
	plain := struct{ stable.Storage }{stable.NewMemDisk(stable.Profile{})}
	combos := []stable.Storage{
		plain,
		struct {
			stable.Storage
			fakeScanner
		}{plain, fakeScanner{}},
		struct {
			stable.Storage
			fakeDeleter
		}{plain, fakeDeleter{}},
		struct {
			stable.Storage
			fakeStats
		}{plain, fakeStats{}},
		struct {
			stable.Storage
			fakeScanner
			fakeDeleter
		}{plain, fakeScanner{}, fakeDeleter{}},
		struct {
			stable.Storage
			fakeScanner
			fakeStats
		}{plain, fakeScanner{}, fakeStats{}},
		struct {
			stable.Storage
			fakeDeleter
			fakeStats
		}{plain, fakeDeleter{}, fakeStats{}},
		struct {
			stable.Storage
			fakeScanner
			fakeDeleter
			fakeStats
		}{plain, fakeScanner{}, fakeDeleter{}, fakeStats{}},
	}
	dir := t.TempDir()
	for _, backend := range []string{"mem", "file", "wal", "sharded"} {
		st, err := stable.OpenBackend(backend, filepath.Join(dir, backend), stable.Profile{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		combos = append(combos, st)
	}
	tr := newTracer()
	seen := make(map[[3]bool]bool)
	for i, st := range combos {
		s, d, c := implements(st)
		seen[[3]bool{s, d, c}] = true
		ws, wd, wc := implements(tr.wrapStorage(0, st))
		if ws != s || wd != d || wc != c {
			t.Errorf("combo %d (%T): wrapper has scan/delete/stats %v/%v/%v, engine %v/%v/%v",
				i, st, ws, wd, wc, s, d, c)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 interface combinations", len(seen))
	}
}

// Recovery enumerates through stable.ScanRecords; over the wrapped sharded
// engine it must stream through Scan, as it does unwrapped.
func TestStorageWrapperScansNatively(t *testing.T) {
	st, err := stable.OpenBackend("sharded", t.TempDir(), stable.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := newTracer()
	w := tr.wrapStorage(3, st)
	if err := w.StoreBatch([]stable.Record{{Name: "writing/x", Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := stable.ScanRecords(w, "writing/", func(n string) error { names = append(names, n); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "writing/x" {
		t.Fatalf("scan returned %v", names)
	}
	var calls []string
	for _, s := range tr.snapshot() {
		calls = append(calls, s.Name)
		if s.Name == "StoreBatch" && (s.Reg != "x" || s.Node != 3 || s.N != 1) {
			t.Errorf("store span not attributed to register x on node 3: %+v", s)
		}
	}
	if len(calls) != 2 || calls[1] != "Scan" {
		t.Fatalf("wrapper calls %v, want StoreBatch then Scan", calls)
	}
}

// The endpoint wrapper keeps the mesh's batch path, and records every
// envelope of a batch with its op id.
func TestEndpointWrapperKeepsBatching(t *testing.T) {
	m, err := nettcp.Listen(0, "127.0.0.1:0", nettcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetPeers([]string{m.Addr()})
	tr := newTracer()
	ep := tr.wrapEndpoint(m)
	bs, ok := ep.(transport.BatchSender)
	if !ok {
		t.Fatal("wrapper of a nettcp.Mesh does not implement transport.BatchSender")
	}
	if _, ok := tr.wrapEndpoint(struct{ transport.Endpoint }{m}).(transport.BatchSender); ok {
		t.Fatal("wrapper of a non-batching endpoint claims BatchSender")
	}
	bs.SendBatch([]wire.Envelope{
		{Kind: wire.KindSNQuery, From: 0, To: 0, Reg: "a", Op: 7},
		{Kind: wire.KindRead, From: 0, To: 0, Reg: "b", Op: 8},
	})
	for i := 0; i < 2; i++ {
		select {
		case <-m.Recv():
		case <-time.After(5 * time.Second):
			t.Fatal("batch not delivered")
		}
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Op != 7 || spans[1].Op != 8 || spans[0].N != 2 || spans[1].N != 0 {
		t.Fatalf("send spans %+v", spans)
	}
}

// A short traced closed-durable run: the persistent write pays the paper's
// two causal logs, and the stages tile the write latency.
func TestTracedClosedDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a durable mesh")
	}
	w, _ := workloadByName("closed-durable")
	tr := newTracer()
	m, err := measure(w, 1, 1, t.TempDir(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.checkErr != nil {
		t.Fatal(m.checkErr)
	}
	rep := analyze(layerInput{tr: tr, t0: m.t0, t1: m.t1, c0: m.c0, c1: m.c1})
	if got := rep.metrics["core.logs_per_write"]; got < 1.9 || got > 2.1 {
		t.Errorf("core.logs_per_write = %v, want ≈ 2", got)
	}
	if rep.linked < 0.9 || rep.tiling < 0.9 || rep.tiling > 1.1 {
		t.Errorf("stages cover %.3f of write latency on %.0f%% of writes", rep.tiling, 100*rep.linked)
	}
	if m.ops == 0 || len(m.restartMS) != w.probes {
		t.Errorf("ops %d, restarts %d", m.ops, len(m.restartMS))
	}
}

// Untraced, the restart probes run in bursts between the windows with the
// clock stopped: every probe is timed, every window has ops, and the
// windows alone make up the timed phase.
func TestProbesSpreadOverWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a durable mesh")
	}
	w, _ := workloadByName("closed-durable")
	w.probes = 9
	m, err := measure(w, 1, 3, t.TempDir(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.checkErr != nil {
		t.Fatal(m.checkErr)
	}
	if len(m.restartMS) != w.probes {
		t.Errorf("%d restarts timed, want %d", len(m.restartMS), w.probes)
	}
	for k, ops := range m.winOps {
		if ops <= 0 {
			t.Errorf("window %d has no ops", k)
		}
	}
	if m.elapsed < 2900*time.Millisecond || m.elapsed > 3300*time.Millisecond {
		t.Errorf("windows last %v in all, want 3s", m.elapsed)
	}
}

// The history gate fails a run whose node serves stale reads.
func TestCheckFailsOnStaleReads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a mesh")
	}
	w, _ := workloadByName("pipelined-mem")
	w.staleReads = true
	m, err := measure(w, 1, 1, t.TempDir(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.checkErr == nil {
		t.Fatal("a node serving frozen reads passed the atomicity check")
	}
}
