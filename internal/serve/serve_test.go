package serve

import (
	"sync"
	"testing"
)

func kvSpec(nodes, keys, gateways int) Spec {
	return Spec{Workload: "kv", Nodes: nodes, Keys: keys, Gateways: gateways}
}

const jlangSrc = `
	var out;
	func main() {
		out = (3 + 4) * 5;
		halt();
	}
`

func TestSpecNormalize(t *testing.T) {
	if _, err := (Spec{Workload: "kv", Nodes: 6}).Normalize(); err == nil {
		t.Error("non-power-of-two kv node count accepted")
	}
	if _, err := (Spec{Workload: "jlang"}).Normalize(); err == nil {
		t.Error("jlang without source accepted")
	}
	if _, err := (Spec{Workload: "weird"}).Normalize(); err == nil {
		t.Error("unknown workload accepted")
	}
	s, err := (Spec{Workload: "kv", Nodes: 8}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Keys == 0 || s.Gateways == 0 || s.Budget == 0 {
		t.Errorf("defaults not filled: %+v", s)
	}
	atCap := Spec{Workload: "kv", Nodes: MaxNodes, Shards: MaxShards, Budget: MaxBudget}
	if _, err := atCap.Normalize(); err != nil {
		t.Errorf("spec at every limit refused: %v", err)
	}
	for _, over := range []Spec{
		{Workload: "kv", Nodes: 2 * MaxNodes},
		{Workload: "kv", Shards: MaxShards + 1},
		{Workload: "kv", Budget: MaxBudget + 1},
	} {
		if _, err := over.Normalize(); err == nil {
			t.Errorf("spec over a limit accepted: %+v", over)
		}
	}
}

func TestKVSessionServesOps(t *testing.T) {
	g, err := NewManager(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Create(kvSpec(4, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ops []KVOp) []KVResult {
		t.Helper()
		sess, release, err := g.Acquire(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		res, err := sess.KVApply(ops)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Two batches: ops within one batch race through the mesh (that is
	// the workload's point), but a batch only returns once every reply
	// landed, so batch boundaries order the put before the get.
	res := apply([]KVOp{{Op: "put", Key: 3, Value: 42}})
	res = append(res, apply([]KVOp{{Op: "get", Key: 3}})...)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	bySeq := map[int32]KVResult{}
	for _, r := range res {
		bySeq[r.Seq] = r
	}
	if got := bySeq[1]; got.Value != 42 || got.Version != 1 {
		t.Errorf("get returned value=%d version=%d, want 42/1", got.Value, got.Version)
	}
	for _, r := range res {
		if r.Latency <= 0 {
			t.Errorf("seq %d: latency %d, want > 0", r.Seq, r.Latency)
		}
	}
	// Different gateways serve consecutive seqs.
	if bySeq[0].Gateway == bySeq[1].Gateway {
		t.Errorf("seqs 0,1 both via gateway %d, want rotation", bySeq[0].Gateway)
	}
}

// TestEvictRestoreContinuity forces eviction churn and checks that a
// restored session continues exactly where it stopped: same digest
// trajectory as a never-evicted replay of the same op stream.
func TestEvictRestoreContinuity(t *testing.T) {
	g, err := NewManager(t.TempDir(), 1) // one resident slot: every switch evicts
	if err != nil {
		t.Fatal(err)
	}
	spec := kvSpec(4, 16, 2)
	a, err := g.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ops := GenOps(7, 16, 24)
	var reqs []ReplayReq
	for i := 0; i < len(ops); i += 4 {
		batch := ops[i : i+4]
		reqs = append(reqs, ReplayReq{Ops: batch})
		// Alternating sessions forces each request to restore from the
		// checkpoint the previous one wrote.
		for _, id := range []string{a.ID, b.ID} {
			sess, release, err := g.Acquire(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.KVApply(batch); err != nil {
				release()
				t.Fatal(err)
			}
			release()
		}
	}
	_, want, err := Replay(spec, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		sess, release, err := g.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := sess.Digest()
		restores := sess.restores.Load()
		release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("session %s digest %016x, want %016x", id, got, want)
		}
		if restores == 0 {
			t.Errorf("session %s was never evicted; test exercised nothing", id)
		}
	}
}

// TestConcurrentSessionDeterminism is the tentpole invariant: N
// sessions running the same workload concurrently — with eviction
// churn from a small residency cap — each produce exactly the digest
// of a standalone run. Run under -race in CI.
func TestConcurrentSessionDeterminism(t *testing.T) {
	const sessions = 8
	g, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := kvSpec(8, 32, 4)
	ids := make([]string, sessions)
	for i := range ids {
		s, err := g.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
	}
	ops := GenOps(42, 32, 40)
	var reqs []ReplayReq
	for i := 0; i < len(ops); i += 8 {
		reqs = append(reqs, ReplayReq{Ops: ops[i : i+8]})
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for _, req := range reqs {
				sess, release, err := g.Acquire(id)
				if err != nil {
					errs[i] = err
					return
				}
				_, err = sess.KVApply(req.Ops)
				release()
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %s: %v", ids[i], err)
		}
	}
	_, want, err := Replay(spec, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		sess, release, err := g.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := sess.Digest()
		release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("session %s digest %016x, want standalone %016x", id, got, want)
		}
	}
}

// TestCrashRecovery drops the manager without Shutdown — exactly what
// kill -9 leaves behind — and recovers the directory with a fresh one.
// Every session must come back at its last committed request with an
// identical digest.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	g, err := NewManager(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := kvSpec(4, 16, 2)
	ops := GenOps(3, 16, 12)
	digests := map[string]uint64{}
	for i := 0; i < 3; i++ {
		s, err := g.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		sess, release, err := g.Acquire(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.KVApply(ops[:4*(i+1)]); err != nil {
			t.Fatal(err)
		}
		_, d, err := sess.Digest()
		release()
		if err != nil {
			t.Fatal(err)
		}
		digests[s.ID] = d
	}
	// No Shutdown: the on-disk state is whatever the per-request
	// commits left. A fresh manager must recover all three.
	g2, err := NewManager(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g2.List()); got != 3 {
		t.Fatalf("recovered %d sessions, want 3", got)
	}
	for id, want := range digests {
		sess, release, err := g2.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := sess.Digest()
		release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("recovered %s digest %016x, want %016x", id, got, want)
		}
	}
	// New sessions must not collide with recovered IDs.
	s4, err := g2.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := digests[s4.ID]; ok {
		t.Errorf("new session reused recovered ID %s", s4.ID)
	}
}

func TestJlangSession(t *testing.T) {
	g, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Create(Spec{Workload: "jlang", Nodes: 2, Source: jlangSrc})
	if err != nil {
		t.Fatal(err)
	}
	sess, release, err := g.Acquire(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, quiescent, err := sess.Run(0)
	if err != nil {
		release()
		t.Fatal(err)
	}
	_, want, err := sess.Digest()
	release()
	if err != nil {
		t.Fatal(err)
	}
	if !quiescent {
		t.Error("jlang program did not quiesce within budget")
	}
	_, got, err := Replay(Spec{Workload: "jlang", Nodes: 2, Source: jlangSrc}, []ReplayReq{{Run: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("served digest %016x, standalone %016x", want, got)
	}
}

func TestShutdownThenRecover(t *testing.T) {
	dir := t.TempDir()
	g, err := NewManager(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := kvSpec(4, 8, 2)
	s, err := g.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess, release, err := g.Acquire(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.KVApply([]KVOp{{Op: "put", Key: 1, Value: 9}}); err != nil {
		t.Fatal(err)
	}
	_, want, _ := sess.Digest()
	release()
	if err := g.Shutdown(); err != nil {
		t.Fatal(err)
	}
	g2, err := NewManager(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess, release, err = g2.Acquire(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := sess.Digest()
	release()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("digest after shutdown/recover %016x, want %016x", got, want)
	}
}

func TestDeleteSession(t *testing.T) {
	g, err := NewManager(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.Create(kvSpec(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Acquire(s.ID); err == nil {
		t.Error("acquired a deleted session")
	}
	if err := g.Delete(s.ID); err == nil {
		t.Error("double delete succeeded")
	}
}
