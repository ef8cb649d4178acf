package main

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/trustnet"
)

// frameCounter counts the bytes and frames of one direction of a cluster
// TCP stream. The transport frames each message as a 4-byte big-endian
// length followed by that many bytes; a frame counts once its length
// prefix has been seen.
type frameCounter struct {
	hdr    [4]byte
	hdrN   int
	remain uint32
	bytes  atomic.Int64
	frames atomic.Int64
}

func (c *frameCounter) Write(p []byte) (int, error) {
	n := len(p)
	c.bytes.Add(int64(n))
	for len(p) > 0 {
		if c.remain > 0 {
			k := len(p)
			if uint64(k) > uint64(c.remain) {
				k = int(c.remain)
			}
			c.remain -= uint32(k)
			p = p[k:]
			continue
		}
		k := copy(c.hdr[c.hdrN:], p)
		c.hdrN += k
		p = p[k:]
		if c.hdrN == len(c.hdr) {
			c.remain = binary.BigEndian.Uint32(c.hdr[:])
			c.hdrN = 0
			c.frames.Add(1)
		}
	}
	return n, nil
}

// relay forwards worker connections to the master's listener and counts
// what crosses it: toWorker is the master's outbound stream, toMaster its
// inbound one.
type relay struct {
	ln                 net.Listener
	target             string
	toWorker, toMaster frameCounter
	wg                 sync.WaitGroup
	mu                 sync.Mutex
	conns              []net.Conn
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln, target: target}
	rl.wg.Add(1)
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() string { return rl.ln.Addr().String() }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		worker, err := rl.ln.Accept()
		if err != nil {
			return
		}
		master, err := net.Dial("tcp", rl.target)
		if err != nil {
			worker.Close()
			continue
		}
		rl.mu.Lock()
		rl.conns = append(rl.conns, worker, master)
		rl.mu.Unlock()
		rl.wg.Add(2)
		go rl.pipe(master, worker, &rl.toMaster)
		go rl.pipe(worker, master, &rl.toWorker)
	}
}

// pipe copies src to dst through the counter; when either side ends, both
// connections close, which ends the opposite pipe too.
func (rl *relay) pipe(dst, src net.Conn, c *frameCounter) {
	defer rl.wg.Done()
	_, _ = io.Copy(dst, io.TeeReader(src, c)) // ends when either side closes
	dst.Close()
	src.Close()
}

// close stops the relay and waits for its goroutines.
func (rl *relay) close() {
	rl.ln.Close()
	rl.mu.Lock()
	for _, c := range rl.conns {
		c.Close()
	}
	rl.mu.Unlock()
	rl.wg.Wait()
}

// clusterRig is one master with one worker over TCP on 127.0.0.1, both in
// this process; with a relay, the worker reaches the master through it.
type clusterRig struct {
	m         *cluster.Master
	rl        *relay
	workerErr chan error
	connectMs float64
}

func startCluster(sc trustnet.Scenario, withRelay bool) (*clusterRig, error) {
	ln, err := cluster.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m, err := cluster.NewMaster(sc, cluster.MasterConfig{Listener: ln})
	if err != nil {
		ln.Close()
		return nil, err
	}
	rig := &clusterRig{m: m, workerErr: make(chan error, 1)}
	addr := ln.Addr()
	if withRelay {
		if rig.rl, err = startRelay(addr); err != nil {
			m.Shutdown()
			return nil, err
		}
		addr = rig.rl.addr()
	}
	t0 := time.Now()
	conn, err := cluster.DialTCP(addr, 10*time.Second)
	if err != nil {
		rig.stop()
		return nil, err
	}
	go func() { rig.workerErr <- cluster.RunWorker(conn, "perfbench-w0") }()
	if err := m.WaitForWorkers(1, 30*time.Second); err != nil {
		rig.stop()
		return nil, err
	}
	rig.connectMs = ms(time.Since(t0))
	return rig, nil
}

// stop shuts the master down and waits for the worker and the relay.
func (rig *clusterRig) stop() {
	rig.m.Shutdown()
	select {
	case <-rig.workerErr: // the worker's exit error after a shutdown is expected
	case <-time.After(10 * time.Second):
	}
	if rig.rl != nil {
		rig.rl.close()
	}
}

// clusterParams are the generated inputs of cluster_tcp.
type clusterParams struct {
	Scenario trustnet.Scenario `json:"scenario"`
	Epochs   int               `json:"epochs"`
	Workers  int               `json:"workers"`
}

// runClusterTCP drives the master's engine exactly like a local one while
// the worker runs the delegated scatter and SpMV phases. The history must
// equal an untimed single-process run of the same scenario bit for bit.
// The traced run routes the worker through a counting relay; the master
// builds its own mechanism, so no reputation spans are recorded there.
func runClusterTCP(cfg config, r *result) error {
	const peers = 1000
	sc := benchScenario(cfg.seed, peers)
	epochs := 2 * cfg.seconds
	r.Params = clusterParams{Scenario: sc, Epochs: epochs, Workers: 1}

	var rig *clusterRig
	if err := r.setup(func() (err error) {
		if rig != nil {
			rig.stop()
		}
		rig, err = startCluster(sc, cfg.trace)
		return err
	}); err != nil {
		return err
	}
	defer func() {
		if rig != nil {
			rig.stop()
		}
	}()
	r.ops(1, 0) // the worker's lifetime

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	eng := rig.m.Engine()
	d := newEpochLoop(tr)
	opts := []trustnet.SessionOption{trustnet.WithMaxEpochs(epochs)}
	if tr != nil {
		opts = append(opts, trustnet.OnRound(d.onRound))
	}
	s, err := eng.Session(context.Background(), opts...)
	if err != nil {
		return err
	}
	var outB, inB, frames int64
	if rig.rl != nil {
		outB, inB, frames = rig.rl.toWorker.bytes.Load(), rig.rl.toMaster.bytes.Load(), rig.rl.toWorker.frames.Load()+rig.rl.toMaster.frames.Load()
	}
	d.run.begin()
	if err := d.drive(epochs, s.Next); err != nil {
		return err
	}
	d.run.end()
	r.ops(epochs, 0)
	r.epochMetrics(d.run)
	deaths := 1 - rig.m.LiveWorkers()
	r.ops(0, deaths)
	n := float64(epochs)
	if rig.rl != nil {
		r.set("cluster.bytes_out_per_epoch", float64(rig.rl.toWorker.bytes.Load()-outB)/n)
		r.set("cluster.bytes_in_per_epoch", float64(rig.rl.toMaster.bytes.Load()-inB)/n)
		r.set("cluster.frames_per_epoch", float64(rig.rl.toWorker.frames.Load()+rig.rl.toMaster.frames.Load()-frames)/n)
	}
	scatter, spmv := rig.m.RemotePhases()
	r.set("cluster.resyncs", float64(rig.m.Resyncs()))
	r.set("cluster.remote_scatter_chunks", float64(scatter))
	r.set("cluster.remote_spmv_ranges", float64(spmv))
	r.set("cluster.connect_ms", rig.connectMs)
	r.set("cluster.worker_deaths", float64(deaths))
	r.zero(serveLayerMetrics...)
	if tr != nil {
		r.traceMetrics(d.run, tr.finish(), nil)
	}

	ck, err := takeCheckpoint(eng.Snapshot)
	if err != nil {
		return err
	}
	hist := eng.History()
	if _, err := ck.resume(func() (*trustnet.Engine, error) {
		eng, _, err := newEngine(sc, nil)
		return eng, err
	}); err != nil {
		return err
	}
	r.checkpointMetrics(ck)

	// The single-process reference runs untimed and untraced: the cluster
	// history must equal it bit for bit.
	local, _, err := newEngine(sc, nil)
	if err != nil {
		return err
	}
	want, err := local.Run(context.Background(), epochs)
	if err != nil {
		return err
	}
	r.checkSame("cluster_equals_single_process", hist, want)
	if !cfg.trace {
		return nil
	}

	// A traced run repeats the epochs on an untraced cluster that also
	// routes its worker through the relay: equal histories show that
	// observing changed no bits, and the run-time ratio prices the spans.
	rig.stop()
	if rig, err = startCluster(sc, true); err != nil {
		return err
	}
	s, err = rig.m.Engine().Session(context.Background(), trustnet.WithMaxEpochs(epochs))
	if err != nil {
		return err
	}
	u := newEpochLoop(nil)
	u.run.begin()
	if err := u.drive(epochs, s.Next); err != nil {
		return err
	}
	r.checkSame("traced_equals_untraced", hist, rig.m.Engine().History())
	r.set("trace.overhead_frac", d.run.seconds()/u.run.seconds()-1)
	return nil
}
