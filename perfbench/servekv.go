package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"jmachine/internal/serve"
)

// kvShape sizes the serve-kv workload.
type kvShape struct {
	sessions   int // kv sessions hosted by the daemon
	nodes      int // nodes per session machine
	keys       int // key space per session
	batch      int // ops per request
	clients    int // closed-loop clients; each owns whole sessions
	setups     int // set-up repetitions (the last one is served)
	warmSetups int // leading set-ups not counted
	direct     int // requests per session in the traced run's direct-call phase
}

func (k kvShape) spec() serve.Spec {
	return serve.Spec{Workload: "kv", Nodes: k.nodes, Keys: k.keys, Gateways: 4}
}

// stream returns session i's request stream for a run seed: its own
// GenOps stream and an empty store model.
func (k kvShape) stream(seed int64, i int) *kvStream {
	return &kvStream{seed: seed*int64(k.sessions) + int64(i), keys: k.keys, batch: k.batch,
		committed: kvModel{val: make([]int32, k.keys), ver: make([]int32, k.keys)}}
}

// kvStream is one session's request stream: GenOps(seed, keys, n) is a
// prefix of the same call with a larger n, so the stream grows by
// regenerating it at double the length.
type kvStream struct {
	seed      int64
	keys      int
	batch     int
	ops       []serve.KVOp
	done      int // requests completed
	committed kvModel
}

func (s *kvStream) next() []serve.KVOp {
	lo := s.done * s.batch
	if lo+s.batch > len(s.ops) {
		s.ops = serve.GenOps(s.seed, s.keys, max(2*len(s.ops), 64*s.batch))
	}
	return s.ops[lo : lo+s.batch]
}

// replay returns the completed prefix as a serve.Replay stream.
func (s *kvStream) replay() []serve.ReplayReq {
	ops := serve.GenOps(s.seed, s.keys, s.done*s.batch)
	reqs := make([]serve.ReplayReq, s.done)
	for i := range reqs {
		reqs[i] = serve.ReplayReq{Ops: ops[i*s.batch : (i+1)*s.batch]}
	}
	return reqs
}

// kvModel is the expected store of one session: the value and version
// of every key as of the last completed request.
type kvModel struct {
	val, ver []int32
}

// check validates a request's replies and advances the model. Ops of one
// request race through the mesh, so their order is revealed only by the
// versions the store assigned: the puts on a key must take the next
// versions in some order, each put reply echoes its value, and a get
// must return the value of the put that produced the version it read.
func (k *kvModel) check(firstSeq int32, ops []serve.KVOp, res []serve.KVResult) error {
	if len(res) != len(ops) {
		return fmt.Errorf("%d replies for %d ops", len(res), len(ops))
	}
	bySeq := make([]*serve.KVResult, len(ops))
	for i := range res {
		j := int(res[i].Seq - firstSeq)
		if j < 0 || j >= len(ops) || bySeq[j] != nil {
			return fmt.Errorf("reply for unexpected seq %d", res[i].Seq)
		}
		bySeq[j] = &res[i]
	}
	puts := map[int32]int32{}      // key -> puts in this request
	putVal := map[[2]int32]int32{} // (key, version) -> value stored
	for j, op := range ops {
		if op.Op == "put" {
			r := bySeq[j]
			if r.Value != op.Value {
				return fmt.Errorf("put seq %d stored %d, sent %d", r.Seq, r.Value, op.Value)
			}
			puts[op.Key]++
			putVal[[2]int32{op.Key, r.Version}] = r.Value
		}
	}
	for key, n := range puts {
		for v := k.ver[key] + 1; v <= k.ver[key]+n; v++ {
			if _, ok := putVal[[2]int32{key, v}]; !ok {
				return fmt.Errorf("key %d: puts did not take versions %d..%d", key, k.ver[key]+1, k.ver[key]+n)
			}
		}
	}
	for j, op := range ops {
		if op.Op != "get" {
			continue
		}
		r := bySeq[j]
		want, ok := k.val[op.Key], r.Version == k.ver[op.Key]
		if !ok {
			want, ok = putVal[[2]int32{op.Key, r.Version}]
		}
		if !ok || r.Value != want {
			return fmt.Errorf("get seq %d key %d read %d at version %d, not the last put", r.Seq, op.Key, r.Value, r.Version)
		}
	}
	for key, n := range puts {
		k.ver[key] += n
		k.val[key] = putVal[[2]int32{key, k.ver[key]}]
	}
	return nil
}

// daemon is an in-process jm-serve: a Manager behind serve.NewHandler on
// a loopback listener, metered per POST.
type daemon struct {
	g    *serve.Manager
	srv  *http.Server
	base string
	ids  []string
	done chan struct{}
	hc   *http.Client
	h    *meteredHandler
}

// meteredHandler records, for every POST (session create or kv
// request), the host seconds spent inside the serve handler and the CPU
// seconds of the thread running it. The goroutine is locked to its
// thread for the call so the thread CPU clock measures this request
// alone. The replies are small enough to sit in the server's write
// buffer until the handler returns, so a sample is recorded before the
// client can see the reply.
type meteredHandler struct {
	h  http.Handler
	mu sync.Mutex
	// wall and cpu hold one sample per POST served.
	wall, cpu []float64
}

func (m *meteredHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		m.h.ServeHTTP(w, r)
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), cpuSeconds(clockThreadCPU)
	m.h.ServeHTTP(w, r)
	c1, wall := cpuSeconds(clockThreadCPU), time.Since(t0).Seconds()
	m.mu.Lock()
	m.wall = append(m.wall, wall)
	m.cpu = append(m.cpu, c1-c0)
	m.mu.Unlock()
}

// since returns the samples recorded after the first n of each.
func (m *meteredHandler) since(n int) (wall, cpu []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wall[n:], m.cpu[n:]
}

func (m *meteredHandler) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wall, m.cpu = nil, nil
}

func (m *meteredHandler) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.wall)
}

// startDaemon opens a manager on dir, serves it on a fresh loopback
// port, and creates the sessions over HTTP: the set-up a user waits for
// before the first kv request, each session's cycle-zero checkpoint
// included.
func startDaemon(k kvShape, dir string) (*daemon, error) {
	g, err := serve.NewManager(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		g: g, base: "http://" + ln.Addr().String(), done: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: k.clients}},
		h:  &meteredHandler{h: serve.NewHandler(g)},
	}
	d.srv = &http.Server{Handler: d.h}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	for i := 0; i < k.sessions; i++ {
		var created struct {
			ID string `json:"id"`
		}
		if err := d.do("POST", "/v1/sessions", k.spec(), &created); err != nil {
			d.close()
			return nil, fmt.Errorf("create session %d: %w", i, err)
		}
		d.ids = append(d.ids, created.ID)
	}
	return d, nil
}

// close stops the listener and waits for the serve loop to exit.
func (d *daemon) close() {
	d.hc.CloseIdleConnections()
	d.srv.Close()
	<-d.done
}

// do sends one JSON request and decodes the JSON reply into out.
func (d *daemon) do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e) // the status alone still reports the failure
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, e.Error)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// instructions sums the instructions every session has retired.
func (d *daemon) instructions() (uint64, error) {
	total := uint64(0)
	for _, id := range d.ids {
		var snap struct {
			Instrs uint64 `json:"instrs"`
		}
		if err := d.do("GET", "/v1/sessions/"+id+"/snapshot", nil, &snap); err != nil {
			return 0, err
		}
		total += snap.Instrs
	}
	return total, nil
}

// kvPhase is the outcome of driving the daemon's sessions for a while.
type kvPhase struct {
	lat         []float64 // host seconds per request, client round trip
	handlerWall []float64 // host seconds per request inside the handler
	handlerCPU  []float64 // thread CPU seconds per request inside the handler
	instrs      uint64    // simulated instructions retired during the phase
	wall        float64   // host seconds of the phase
	failed      int
}

// drive runs the closed loop until the deadline: client c owns sessions
// c, c+clients, ... and sends each of them one request in turn, waiting
// for every reply, so each session's stream stays in order.
func drive(d *daemon, k kvShape, streams []*kvStream, deadline time.Time, logf func(string, ...any)) (kvPhase, error) {
	var ph kvPhase
	before, err := d.instructions()
	if err != nil {
		return ph, err
	}
	n0 := d.h.count()
	per := make([]kvPhase, k.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < k.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &per[c]
			for len(p.lat) == 0 || time.Now().Before(deadline) {
				for i := c; i < k.sessions; i += k.clients {
					s := streams[i]
					ops := s.next()
					var resp struct {
						Results []serve.KVResult `json:"results"`
					}
					t := time.Now()
					err := d.do("POST", "/v1/sessions/"+d.ids[i]+"/kv", map[string]any{"ops": ops}, &resp)
					lat := time.Since(t).Seconds()
					if err == nil {
						err = s.committed.check(int32(s.done*k.batch), ops, resp.Results)
					}
					if err != nil {
						logf("session %d request %d: %v", i, s.done, err)
						p.failed++
						return // the stream is broken: stop driving this client
					}
					s.done++
					p.lat = append(p.lat, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0).Seconds()
	ph.handlerWall, ph.handlerCPU = d.h.since(n0)
	for _, p := range per {
		ph.lat = append(ph.lat, p.lat...)
		ph.failed += p.failed
	}
	after, err := d.instructions()
	ph.instrs = after - before
	return ph, err
}

// verify compares every session's digest with serve.Replay of the
// stream it served; it returns the number of sessions that differ.
func verify(d *daemon, k kvShape, streams []*kvStream, logf func(string, ...any)) int {
	bad := 0
	for i, s := range streams {
		var dig struct {
			Cycle  int64  `json:"cycle"`
			Digest string `json:"digest"`
		}
		err := d.do("GET", "/v1/sessions/"+d.ids[i]+"/digest", nil, &dig)
		if err == nil {
			var cycle int64
			var want uint64
			cycle, want, err = serve.Replay(k.spec(), s.replay())
			if err == nil && (dig.Digest != fmt.Sprintf("%016x", want) || dig.Cycle != cycle) {
				err = fmt.Errorf("digest %s at cycle %d, replay %016x at cycle %d", dig.Digest, dig.Cycle, want, cycle)
			}
		}
		if err != nil {
			logf("session %d: %v", i, err)
			bad++
		}
	}
	return bad
}

// serveKVWorkload measures kv requests on an in-process jm-serve whose
// state directory lies under c.state.
func serveKVWorkload(k kvShape, c runCfg) (report, error) {
	rep := report{scope: scopeServe, values: map[string]float64{}}
	base := filepath.Join(c.state, fmt.Sprintf("serve-kv-%d", os.Getpid()))
	if err := os.RemoveAll(base); err != nil {
		return rep, err
	}
	defer os.RemoveAll(base)

	// Set-up, repeated: the first k.warmSetups rounds warm the process
	// and are not counted, the median of the rest is reported, and the
	// last daemon is the one served. A probe follows each counted round,
	// and as many run after the request phase.
	var setupCPU, setupWall, probes []float64
	var d *daemon
	for i := 0; i < k.setups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(k, filepath.Join(base, fmt.Sprintf("daemon%d", i))); err != nil {
			return rep, err
		}
		if i < k.warmSetups {
			continue
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		_, creates := d.h.since(0)
		setupCPU = append(setupCPU, sum(creates))
		probes = append(probes, probe())
	}
	defer func() { d.close() }()
	c.logSpread("setup wall s", setupWall)
	c.logSpread("setup cpu s", setupCPU)

	streams := make([]*kvStream, k.sessions)
	for i := range streams {
		streams[i] = k.stream(c.seed, i)
	}
	// Untraced, the whole window is one phase. Traced, an untraced phase
	// and a profiled phase share the window, and a fixed stream replayed
	// by direct calls splits the serve and ckpt layers.
	start := time.Now()
	end := start.Add(c.window)
	if c.trace {
		end = start.Add(c.window / 2)
	}
	plain, err := drive(d, k, streams, end, c.logf)
	if err != nil {
		return rep, err
	}
	rep.attempted, rep.failed = len(plain.lat)+plain.failed, plain.failed
	for range k.setups - k.warmSetups {
		probes = append(probes, probe())
	}
	c.logf("requests %d in %.3fs: %.1f req/s", len(plain.lat), plain.wall, float64(len(plain.lat))/plain.wall)
	c.logSpread("request wall s", plain.lat)
	c.logf("request wall p99 %.6g s over %d samples", nearestRank(plain.lat, 99), len(plain.lat))
	c.logSpread("handler cpu s", plain.handlerCPU)
	c.logSpread("probe cpu s", probes)
	v := rep.values
	if !c.trace {
		v["run_ref_s"] = atRefSpeed(plain.handlerCPU, probes)
		v["sim_instr_per_ref_s"] = float64(plain.instrs) / float64(len(plain.lat)) / v["run_ref_s"]
		v["setup_s"] = median(setupCPU)
		// The heap measurement sees the daemon, not the load generator's
		// streams or the samples, whose size grows with the request count.
		plain = kvPhase{}
		d.h.reset()
		for _, s := range streams {
			s.ops = nil
		}
		v["heap_mb"] = liveHeapMB()
		runtime.KeepAlive(d)
	} else {
		prof := newCPUProfile()
		if err := prof.start(); err != nil {
			return rep, err
		}
		tr, err := drive(d, k, streams, start.Add(c.window), c.logf)
		if perr := prof.stop(); err == nil {
			err = perr
		}
		if err != nil {
			return rep, err
		}
		rep.attempted += len(tr.lat) + tr.failed
		rep.failed += tr.failed
		v["wall.run_s"] = median(plain.lat)
		v["wall.tail_s"] = nearestRank(plain.lat, 99)
		v["host.run_cpu_s"] = median(plain.handlerCPU)
		v["host.probe_s"] = median(probes)
		v["serve.http_ms"] = (mean(tr.lat) - mean(tr.handlerWall)) * 1e3
		v["serve.restores"] = float64(d.g.Stat().Restores)
		v["trace.overhead"] = mean(tr.lat) / mean(plain.lat)
		if err := prof.shares(v); err != nil {
			return rep, err
		}
	}
	// The fixed stream's direct-call replay gives the host-independent
	// counters in both modes and the serve/ckpt layer split when traced.
	dr, err := directPhase(k, c, filepath.Join(base, "direct"))
	if err != nil {
		return rep, err
	}
	rep.attempted += dr.attempted
	rep.failed += dr.failed + verify(d, k, streams, c.logf)
	rep.counters = dr.ctr
	if c.trace {
		for name, x := range dr.values {
			v[name] = x
		}
	}
	return rep, nil
}

// directResult is the direct-call phase's outcome.
type directResult struct {
	values            map[string]float64
	ctr               counters
	attempted, failed int
}

// directPhase replays the first k.direct requests of every session's
// stream through Manager.Acquire and Session.KVApply on two managers:
// one with a state directory, which checkpoints after every request, and
// an ephemeral one, which only simulates. Their difference is the cost
// of persistence. Both must end in serve.Replay's state.
func directPhase(k kvShape, c runCfg, dir string) (directResult, error) {
	res := directResult{values: map[string]float64{}}
	disk, err := serve.NewManager(dir, 0)
	if err != nil {
		return res, err
	}
	eph, err := serve.NewManager("", 0)
	if err != nil {
		return res, err
	}
	var acquire, applyDisk, applyEph, ckptBytes, cycles []float64
	digest := uint64(0xcbf29ce484222325) // FNV-1a fold of the session digests
	for i := 0; i < k.sessions; i++ {
		sd, err := disk.Create(k.spec())
		if err != nil {
			return res, err
		}
		se, err := eph.Create(k.spec())
		if err != nil {
			return res, err
		}
		st := k.stream(c.seed, i)
		for r := 0; r < k.direct; r++ {
			ops := st.next()
			t0 := time.Now()
			s, release, err := disk.Acquire(sd.ID)
			if err != nil {
				return res, err
			}
			t1 := time.Now()
			out, err := s.KVApply(ops)
			t2 := time.Now()
			release()
			if err == nil {
				err = st.committed.check(int32(r*k.batch), ops, out)
			}
			res.attempted++
			if err != nil {
				c.logf("direct session %d request %d: %v", i, r, err)
				res.failed++
				break
			}
			s, release, err = eph.Acquire(se.ID)
			if err != nil {
				return res, err
			}
			t3 := time.Now()
			outEph, err := s.KVApply(ops)
			t4 := time.Now()
			release()
			if err != nil {
				return res, err
			}
			st.done++
			fi, err := os.Stat(filepath.Join(dir, sd.ID, "state.ckpt"))
			if err != nil {
				return res, err
			}
			acquire = append(acquire, t1.Sub(t0).Seconds())
			applyDisk = append(applyDisk, t2.Sub(t1).Seconds())
			applyEph = append(applyEph, t4.Sub(t3).Seconds())
			ckptBytes = append(ckptBytes, float64(fi.Size()))
			for _, o := range outEph {
				cycles = append(cycles, float64(o.Latency))
			}
		}
		// The checkpointed and the ephemeral session must both reach the
		// state a standalone replay of the stream reaches.
		wantCycle, want, err := serve.Replay(k.spec(), st.replay())
		if err != nil {
			return res, err
		}
		for _, pair := range []struct {
			g  *serve.Manager
			id string
		}{{disk, sd.ID}, {eph, se.ID}} {
			s, release, err := pair.g.Acquire(pair.id)
			if err != nil {
				return res, err
			}
			cycle, got, err := s.Digest()
			snap, serr := s.Snapshot()
			release()
			if err == nil && serr != nil {
				err = serr
			}
			if err == nil && (got != want || cycle != wantCycle) {
				err = fmt.Errorf("digest %016x at cycle %d, replay %016x at cycle %d", got, cycle, want, wantCycle)
			}
			if err != nil {
				c.logf("direct session %d: %v", i, err)
				res.failed++
				continue
			}
			if pair.g == eph {
				res.ctr.Cycles += snap.Cycle
				res.ctr.Instrs += snap.Instrs
				res.ctr.Threads += snap.Threads
				res.ctr.SendFaults += snap.SendFaults
				res.ctr.PhitHops += snap.PhitHops
				res.ctr.Delivered += snap.DeliveredWords
				digest = (digest ^ got) * 0x100000001b3
			}
		}
	}
	if len(applyDisk) == 0 {
		return res, errors.New("direct phase completed no request")
	}
	res.ctr.Digest = fmt.Sprintf("%016x", digest)
	v := res.values
	v["serve.acquire_ms"] = mean(acquire) * 1e3
	v["serve.simulate_ms"] = mean(applyEph) * 1e3
	v["serve.persist_ms"] = (mean(applyDisk) - mean(applyEph)) * 1e3
	v["ckpt.bytes_per_request"] = mean(ckptBytes)
	v["kv.cycle_p50"] = nearestRank(cycles, 50)
	v["kv.cycle_p99"] = nearestRank(cycles, 99)
	v["mdp.instructions"] = float64(res.ctr.Instrs)
	v["mdp.threads"] = float64(res.ctr.Threads)
	v["mdp.send_faults"] = float64(res.ctr.SendFaults)
	v["network.phit_hops"] = float64(res.ctr.PhitHops)
	v["network.delivered_words"] = float64(res.ctr.Delivered)
	v["machine.sim_cycles"] = float64(res.ctr.Cycles)
	return res, nil
}
