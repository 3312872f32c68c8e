package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
		{10000, 0.999, true}, {9999, 0.999, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v (beyond %d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %g, want 3", q)
	}
	if q := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); q != 9 {
		t.Errorf("p90 = %g, want 9", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestRunFailsUnsupportedPercentile(t *testing.T) {
	r := NewRun(false)
	r.Latencies("read", make([]float64, 999), 0.99, 1)
	if len(r.problems) != 1 {
		t.Fatalf("999 samples for a p99: problems %v, want one", r.problems)
	}
	r = NewRun(false)
	r.Latencies("read", make([]float64, 1000), 0.99, 1)
	if len(r.problems) != 0 {
		t.Fatalf("1000 samples for a p99: problems %v", r.problems)
	}
	if _, ok := r.Metrics()["read_p99_ms"]; !ok {
		t.Fatal("read_p99_ms not reported")
	}
}

func TestBlockPercentilesIgnoreOneBurst(t *testing.T) {
	lat := make([]float64, 5000)
	for i := range lat {
		lat[i] = 1 + float64(i%100)/100 // 1.00 .. 1.99 in every block
	}
	for i := 1000; i < 1400; i++ {
		lat[i] = 50 // a burst inside the second block
	}
	r := NewRun(false)
	r.Latencies("read", lat, 0.99, 5)
	m := r.Metrics()
	if p99 := m["read_p99_ms"].Value; p99 != 1.98 {
		t.Errorf("block-median p99 = %v, want 1.98 (the burst ignored)", p99)
	}
	if len(r.problems) != 0 {
		t.Errorf("problems: %v", r.problems)
	}
	r = NewRun(false)
	r.Latencies("read", lat, 0.99, 1)
	if p99 := r.Metrics()["read_p99_ms"].Value; p99 != 50 {
		t.Errorf("whole-sample p99 = %v, want the burst's 50", p99)
	}
	// 2500 samples carry a p99 in two blocks only. A burst over the first
	// 100 moves the first block's p99 but not the second's, so the median
	// of the two is their mean; the p50 still uses five blocks.
	clean := make([]float64, 2500)
	for i := range clean {
		clean[i] = 1 + float64(i%100)/100
		if i < 100 {
			clean[i] = 50
		}
	}
	r = NewRun(false)
	r.Latencies("read", clean, 0.99, 5)
	if p99 := r.Metrics()["read_p99_ms"].Value; p99 != (50+1.99)/2 {
		t.Errorf("two-block p99 = %v, want %v", p99, (50+1.99)/2)
	}
	if p50 := r.Metrics()["read_p50_ms"].Value; p50 != 1.49 {
		t.Errorf("five-block p50 = %v, want 1.49", p50)
	}
}

// A handler that stalls must charge its wait to every request queued
// behind it: latency runs from each request's due time, not its send time.
func TestDueTimeLatencyChargesQueuedRequests(t *testing.T) {
	const gap = 2 * time.Millisecond
	const stall = 60 * time.Millisecond
	ops := Schedule([]float64{float64(time.Second / gap)}, []int{40})
	out := RunOpenLoop(context.Background(), ops, 1, func(_ context.Context, _ int, op Op) error {
		if op.Arg == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(out) != len(ops) {
		t.Fatalf("%d outcomes for %d ops", len(out), len(ops))
	}
	for _, o := range out {
		if o.Err != nil {
			t.Fatalf("op %d: %v", o.Op.Arg, o.Err)
		}
	}
	// Op 6 was due one gap after the stalled op 5 started, so it waited
	// for nearly the whole stall.
	if l := out[6].Latency; l < stall-2*gap {
		t.Errorf("op queued behind the stall: latency %v, want ≥ %v", l, stall-2*gap)
	}
	// Ops 6..(5+stall/gap) all queued behind it; each waited less.
	if out[7].Latency >= out[6].Latency {
		t.Errorf("later queued op waited longer: %v ≥ %v", out[7].Latency, out[6].Latency)
	}
	// The generator itself kept to schedule: the queue never blocked it.
	for _, o := range out[6:12] {
		if o.Late > stall/2 {
			t.Errorf("op %d released %v late; the generator must not wait on a stalled handler", o.Op.Arg, o.Late)
		}
	}
	// Long after the stall drained, latency is back to service time.
	if l := out[len(out)-1].Latency; l > stall/2 {
		t.Errorf("last op latency %v, want the backlog drained", l)
	}
}

func TestOpenLoopCancelReportsUnreleased(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ops := Schedule([]float64{10}, []int{5}) // due at 50ms, 150ms, ...
	out := RunOpenLoop(ctx, ops, 2, func(context.Context, int, Op) error {
		cancel()
		return nil
	})
	if out[0].Err != nil {
		t.Fatalf("released op failed: %v", out[0].Err)
	}
	for _, o := range out[1:] {
		if o.Err == nil {
			t.Fatalf("op %d not released but reported no error", o.Op.Arg)
		}
	}
}

func TestScheduleInterleavesStreams(t *testing.T) {
	ops := Schedule([]float64{100, 10}, []int{100, 10})
	if len(ops) != 110 {
		t.Fatalf("%d ops, want 110", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Due < ops[i-1].Due {
			t.Fatalf("schedule not due-ordered at %d", i)
		}
	}
	if last := ops[len(ops)-1].Due; last > time.Second {
		t.Fatalf("last op due at %v, want within one second", last)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps a
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // runs past root
		{Name: "d", Parent: 2, Start: ms(25), End: ms(35)},  // grandchild
		{Name: "open", Parent: 0, Start: ms(60), End: -1},   // unfinished
	}
	self := SelfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10), ms(20), ms(30 - 10), ms(30), ms(10), 0}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], w)
		}
	}
}

func TestRecorderDisabledIsNoop(t *testing.T) {
	var r *Recorder
	id := r.Start("t", "x", -1)
	r.End(id)
	if id != -1 || r.Spans() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}

func TestOutputChecks(t *testing.T) {
	pinned := &pins{m: map[string]pin{"k1": {gen: 5, want: 1}}}
	resp := func(gen uint64, score float64) *scoreResponse {
		r := &scoreResponse{Generation: gen}
		r.Atoms = append(r.Atoms, struct {
			Key       string  `json:"key"`
			Score     float64 `json:"score"`
			LocalVars int     `json:"local_vars"`
		}{Key: "k1", Score: score})
		return r
	}
	if err := checkScores(resp(4, 0.3), pinned); err != nil {
		t.Errorf("read before the pin's generation: %v", err)
	}
	if err := checkScores(resp(5, 0.3), pinned); err == nil {
		t.Error("read at the pin's generation missing the pinned value passed")
	}
	if err := checkScores(resp(6, 1), pinned); err != nil {
		t.Errorf("pinned read: %v", err)
	}
	if err := checkScores(resp(1, 1.5), pinned); err == nil {
		t.Error("score above 1 passed")
	}
	free, ev := Atom{ID: 1}, Atom{ID: 2, Evidence: true}
	for _, c := range []struct {
		a      Atom
		score  float64
		vars   int
		pinned bool
		ok     bool
	}{
		{free, 0.5, 3, false, true},
		{free, 0.5, 0, false, false},
		{free, 0.5, 17, false, false},
		{free, -0.1, 3, false, false},
		{ev, 1, 0, false, true},
		{ev, 1, 4, false, false},
		{free, 1, 0, true, true},
	} {
		if err := checkLocal(c.a, c.score, c.vars, 16, c.pinned); (err == nil) != c.ok {
			t.Errorf("checkLocal(%+v, %v, %d, pinned %v) = %v, want ok %v", c.a, c.score, c.vars, c.pinned, err, c.ok)
		}
	}
}

// tinyWorkloads shrink the three workloads so a smoke run of each takes
// seconds while still crossing every phase and output check.
func tinyWorkloads() []Workload {
	return []Workload{
		{Name: "gwdb-build", Wells: 400, Tiles: 2, Epochs: 60, Inputs: 2, SetupReps: 1, MinIters: 3, MaxIters: 3,
			Reads: 1000, Locals: 40, Upserts: 40, Budget: 8},
		{Name: "nyccas-sharded", Side: 20, Tiles: 1, Epochs: 60, Shards: 2, Inputs: 2, SetupReps: 1, MinIters: 3, MaxIters: 3,
			Reads: 1000, Locals: 40, Upserts: 40, Budget: 8},
		{Name: "gwdb-serve", Serve: true, Wells: 400, Tiles: 2, Epochs: 60, Inputs: 2, Budget: 8,
			Boots: 3, Conns: 2, ReadRate: 2500, LazyRate: 60, UpsertRate: 60, MinUpserts: 100},
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run of all workloads")
	}
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			res, rep, err := Execute(context.Background(), w, 3, 2, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
				t.Fatalf("%s traced=%v: correct %v, %d/%d failed, problems %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, rep.Problems)
			}
			defs := EndToEnd
			if traced {
				defs = PerLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(defs))
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
				continue
			}
			// Per-layer attribution: every workload grounds through SQL and
			// compiles kernels; only the sharded one partitions; only the
			// server reports stage self times.
			m := res.Metrics
			for _, name := range []string{"grounding.ground_ms", "sqlx.R1_ms", "factorgraph.compile_ms", "gibbs.epoch_ms", "traced.ground_s"} {
				if m[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, m[name].Value)
				}
			}
			if got := m["shard.exchange_frac"].Value; (w.Shards > 1) != (got > 0) {
				t.Errorf("%s: shard.exchange_frac = %v", w.Name, got)
			}
			if got := m["serve.stage.delta_ground_ms"].Value; w.Serve != (got > 0) {
				t.Errorf("%s: serve.stage.delta_ground_ms = %v", w.Name, got)
			}
			if _, err := os.Stat(rep.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", w.Name, err)
			}
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark reports.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, Workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s/%s vs %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd)
	check("per_layer", spec.PerLayer, PerLayer())
}
