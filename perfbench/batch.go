package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ddlog"
	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/shard"
	"repro/internal/sqlx"
	"repro/internal/storage"
)

// Built is a loaded and grounded system.
type Built struct {
	KB    *KB
	Sys   *core.System
	Res   *grounding.Result
	Setup time.Duration // generate inputs + load program and rows
	Build time.Duration // Ground
	Reads *reader       // batch reads of the inferred scores
}

// buildKB loads a fresh KB (loadKB) and grounds it (groundKB).
func buildKB(ctx context.Context, run *Run, gen func() *KB, trace string, parent int) (*Built, error) {
	b, err := loadKB(run, gen, trace, parent)
	if err != nil {
		return nil, err
	}
	if err := groundKB(ctx, run, b, trace, parent); err != nil {
		b.Sys.Close()
		return nil, err
	}
	return b, nil
}

// loadKB generates the inputs and loads the program and rows into a new
// system, timing each layer call; the whole is the set-up time.
func loadKB(run *Run, gen func() *KB, trace string, parent int) (*Built, error) {
	rec := run.Rec
	settle()
	t0 := time.Now()
	sp := rec.Start(trace, "datagen", parent)
	k := gen()
	rec.End(sp)
	run.Size("atoms", len(k.Atoms))
	run.Size("input_rows", len(k.Inputs))
	run.Size("evidence_rows", len(k.Rows))
	if run.Traced {
		sp = rec.Start(trace, "ddlog.parse", parent)
		t := time.Now()
		_, err := ddlog.ParseAndValidate(k.Program)
		run.Sample("ddlog.parse_ms", "ms", ms(time.Since(t)))
		rec.End(sp)
		if err != nil {
			return nil, fmt.Errorf("parsing program: %w", err)
		}
	}
	sys := core.NewSystem(k.Config)
	sp = rec.Start(trace, "core.load_program", parent)
	err := sys.LoadProgram(k.Program)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("loading program: %w", err)
	}
	sp = rec.Start(trace, "storage.load", parent)
	t := time.Now()
	err = sys.LoadRows(k.Input, k.Inputs)
	if err == nil {
		err = sys.LoadRows(k.Evidence, k.Rows)
	}
	load := time.Since(t)
	rec.End(sp)
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("loading rows: %w", err)
	}
	run.Sample("storage.load_ms", "ms", ms(load))
	return &Built{KB: k, Sys: sys, Setup: time.Since(t0)}, nil
}

// groundKB grounds a loaded system, timing the call. In a traced run it
// also replays each rule's SQL and compiles the sampling kernels on their
// own, for per-layer attribution; that extra work lies outside every
// end-to-end timing.
func groundKB(ctx context.Context, run *Run, b *Built, trace string, parent int) error {
	rec, sys, k := run.Rec, b.Sys, b.KB
	var m0 runtime.MemStats
	settle()
	if run.Traced {
		runtime.ReadMemStats(&m0)
	}
	sp := rec.Start(trace, "grounding.ground", parent)
	t := time.Now()
	res, err := sys.GroundContext(ctx)
	b.Build = time.Since(t)
	rec.End(sp)
	if err != nil {
		return fmt.Errorf("grounding: %w", err)
	}
	b.Res = res
	st := b.Res.Stats
	run.Sample("grounding.ground_ms", "ms", ms(b.Build))
	run.Sample("grounding.vars", "count", float64(st.Vars))
	run.Sample("grounding.logical_factors", "count", float64(st.LogicalFactors))
	run.Sample("grounding.spatial_pairs", "count", float64(st.SpatialPairs))
	run.Check(st.Vars == len(k.Atoms), "grounding: %d variables for %d atoms", st.Vars, len(k.Atoms))
	run.Check(st.EvidenceVars == len(k.Rows), "grounding: %d evidence variables for %d evidence rows", st.EvidenceVars, len(k.Rows))
	if run.Traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		run.Sample("grounding.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if err := replaySQL(ctx, run, b, trace, parent); err != nil {
			return err
		}
		sp = rec.Start(trace, "factorgraph.compile", parent)
		t = time.Now()
		kern := factorgraph.CompileKernels(b.Res.Graph)
		run.Sample("factorgraph.compile_ms", "ms", ms(time.Since(t)))
		rec.End(sp)
		ks := kern.Stats()
		run.Sample("factorgraph.ops", "count", float64(ks.Ops))
		run.Sample("factorgraph.generic_ops", "count", float64(ks.GenericOps))
		run.Sample("factorgraph.slab_mb", "MB", float64(ks.SlabBytes)/1e6)
	}
	return nil
}

// replaySQL re-executes every rule's grounding query through a fresh SQL
// engine at the grounding's own parallelism, timing each one, and checks
// that each returns the rows grounding consumed.
func replaySQL(ctx context.Context, run *Run, b *Built, trace string, parent int) error {
	st := b.Res.Stats
	root := run.Rec.Start(trace, "sqlx.replay", parent)
	defer run.Rec.End(root)
	derivation := map[string]bool{}
	for _, d := range b.Sys.Program().Derivations {
		derivation[d.Label] = true
	}
	skipped := 0
	for _, name := range sortedKeys(st.RuleSQL) {
		eng := sqlx.NewEngine(b.Sys.DB())
		eng.SetParallelism(st.Workers, ctx)
		sp := run.Rec.Start(trace, "sqlx."+name, root)
		t := time.Now()
		res, err := eng.Exec(st.RuleSQL[name], nil)
		d := time.Since(t)
		run.Rec.End(sp)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", name, err)
		}
		rows := len(res.Rows)
		run.Sample("sqlx."+name+"_ms", "ms", ms(d))
		run.Sample("sqlx."+name+"_rows", "count", float64(rows))
		if derivation[name] {
			run.Check(rows == st.DerivationRows[name], "sqlx %s: replay returned %d rows, grounding derived %d", name, rows, st.DerivationRows[name])
			continue
		}
		run.Check(rows >= st.RuleFactors[name], "sqlx %s: replay returned %d rows, grounding made %d factors", name, rows, st.RuleFactors[name])
		skipped += rows - st.RuleFactors[name]
	}
	run.Check(skipped == st.SkippedHeadLookups, "sqlx: replayed rows exceed factors by %d, grounding skipped %d head lookups", skipped, st.SkippedHeadLookups)
	return nil
}

// iteration is the output of one batch build whose repeat is checked.
type iteration struct {
	vars, factors, pairs int
	f1                   float64
}

// runBatch repeats, until the measuring time is spent (at least w.MinIters
// times): extra set-ups, then generate → load → ground → infer → score →
// read, then a query slice. Iteration i uses input i mod w.Inputs, so every
// input after the first w.Inputs iterations repeats and must reproduce its
// first build exactly. Latencies pool over the whole run.
func runBatch(ctx context.Context, run *Run, w Workload, seed int64, seconds int) error {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	q := &queries{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	// Sharded inference is batch-only: a System's incremental and lazy
	// paths run single-process. A sharded workload's query slices therefore
	// go to a single-process replica of each input, built outside every
	// timing, whose upserts accumulate over the run.
	replicas := map[int]*target{}
	defer func() {
		for _, r := range replicas {
			r.Sys.Close()
		}
	}()
	refs := map[int]*iteration{}
	loads, builds := run.Phase("load"), run.Phase("build")
	for i := 0; i < w.MinIters || (time.Now().Before(deadline) && i < w.MaxIters); i++ {
		in := i % w.Inputs
		gen := func() *KB { return w.Generate(seed, in) }
		if w.Shards > 1 && replicas[in] == nil {
			r, err := singleProcessReplica(ctx, gen())
			if err != nil {
				return err
			}
			replicas[in] = &target{Built: r, pinned: map[int]bool{}}
		}
		// Set-up alone is short, so it repeats on its own to steady its
		// median; where grounding is short too, the first repeats also
		// ground.
		for j := 0; j < w.SetupReps; j++ {
			trace := fmt.Sprintf("load-%d-%d", i, j)
			var b *Built
			var err error
			if j < w.GroundReps {
				b, err = buildKB(ctx, run, gen, trace, -1)
			} else {
				b, err = loadKB(run, gen, trace, -1)
			}
			loads.Record(err)
			if err != nil {
				return err
			}
			b.Sys.Close()
			run.Sample("setup_s", "s", b.Setup.Seconds())
			if j < w.GroundReps {
				run.Sample("ground_s", "s", b.Build.Seconds())
			}
		}
		trace := fmt.Sprintf("iter-%d", i)
		it, b, err := batchIteration(ctx, run, w, gen, trace)
		builds.Record(err)
		if err != nil {
			return err
		}
		if ref, ok := refs[in]; ok {
			run.Check(*it == *ref, "iteration %d does not repeat input %d's first build: %+v vs %+v", i, in, *it, *ref)
		} else {
			refs[in] = it
			run.Check(it.f1 > 0 && it.f1 <= 1, "input %d: f1 %.4f outside (0,1]", in, it.f1)
		}
		t := replicas[in]
		if t == nil {
			t = &target{Built: b, pinned: map[int]bool{}}
		}
		err = q.slice(ctx, run, w, t, b.Reads, trace)
		b.Sys.Close()
		if err != nil {
			return err
		}
	}
	run.Check(len(refs) == w.Inputs && builds.Attempted > w.Inputs, "%d iterations over %d inputs: no build repeated", builds.Attempted, w.Inputs)
	run.Size("iterations", builds.Attempted)
	run.Latencies("local", q.locals, 0.9, latencyBlocks)
	run.Latencies("upsert", q.upserts, 0.9, latencyBlocks)
	return nil
}

// batchIteration builds, infers and scores one fresh system.
func batchIteration(ctx context.Context, run *Run, w Workload, gen func() *KB, trace string) (*iteration, *Built, error) {
	rec := run.Rec
	root := rec.Start(trace, "batch.iteration", -1)
	defer rec.End(root)
	// The live heap the KB adds; a sharded workload's replicas stay out.
	base := liveHeapMB()
	b, err := buildKB(ctx, run, gen, trace, root)
	if err != nil {
		return nil, nil, err
	}
	sys, k := b.Sys, b.KB
	cfg := sys.Config()
	if run.Traced && cfg.Shards > 1 {
		sp := rec.Start(trace, "shard.partition", root)
		t := time.Now()
		plan, err := shard.Partition(b.Res.Graph, shard.Options{
			Shards: cfg.Shards, Levels: cfg.PyramidLevels, LocalityLevel: cfg.LocalityLevel,
			Instances: cfg.Instances, Seed: cfg.Seed,
		})
		run.Sample("shard.partition_ms", "ms", ms(time.Since(t)))
		rec.End(sp)
		if err != nil {
			sys.Close()
			return nil, nil, fmt.Errorf("partitioning: %w", err)
		}
		run.Check(plan.Shards == cfg.Shards, "shard: plan has %d shards, want %d", plan.Shards, cfg.Shards)
	}

	var m0 runtime.MemStats
	settle()
	if run.Traced {
		runtime.ReadMemStats(&m0)
	}
	layer := "gibbs.infer"
	if cfg.Shards > 1 {
		layer = "shard.infer"
	}
	sp := rec.Start(trace, layer, root)
	t := time.Now()
	scores, st, err := sys.InferContext(ctx, cfg.Epochs)
	infer := time.Since(t)
	rec.End(sp)
	if err != nil {
		sys.Close()
		return nil, nil, fmt.Errorf("inference: %w", err)
	}
	run.Check(st.Epochs > 0, "inference ran no epochs (%s)", st.Reason)
	if run.Traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		run.Sample("gibbs.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		run.Sample("gibbs.epoch_ms", "ms", ms(infer)/float64(max(st.Epochs, 1)))
		if g := sys.ShardGroup(); g != nil {
			ex := g.ExchangeStats()
			run.Sample("shard.boundary_vars", "count", float64(ex.BoundaryVars))
			run.Sample("shard.exchange_mb", "MB", float64(ex.Bytes)/1e6)
			run.Sample("shard.exchange_frac", "ratio", ex.Seconds/(float64(cfg.Shards)*infer.Seconds()))
		}
	}
	f1 := k.F1(func(a Atom) (float64, bool) { return scores.TrueProb(k.Var, a.Vals()) })
	run.Sample("setup_s", "s", b.Setup.Seconds())
	run.Sample("ground_s", "s", b.Build.Seconds())
	run.Sample("infer_s", "s", infer.Seconds())
	run.Sample("heap_mb", "MB", liveHeapMB()-base)
	run.Sample("f1", "ratio", f1)
	b.Reads = newReader(run, w, k, scores)
	st0 := b.Res.Stats
	return &iteration{vars: st0.Vars, factors: st0.LogicalFactors, pairs: st0.SpatialPairs, f1: f1}, b, nil
}

// queries accumulates a batch run's query slices: the lazy queries and
// evidence upserts a batch user amends a built KB with through the core
// API, folded in by delta grounding plus incremental resampling.
type queries struct {
	rng             *rand.Rand
	locals, upserts []float64 // latencies, in time order
}

// target is a system query slices go to, with the atoms upserted into it.
type target struct {
	*Built
	pinned map[int]bool
}

// slice sends w.Locals lazy queries on uniformly drawn atoms without
// evidence, then w.Upserts single-row evidence upserts, each on an atom
// without evidence not upserted before, to tg.
func (q *queries) slice(ctx context.Context, run *Run, w Workload, tg *target, reads *reader, trace string) error {
	sys, k := tg.Sys, tg.KB
	rec := run.Rec
	root := rec.Start(trace, "batch.query", -1)
	defer rec.End(root)
	// Reads are dealt evenly before each query and upsert.
	perOp := w.Reads / max(1, w.Locals+w.Upserts)
	locals := run.Phase("local")
	sp := rec.Start(trace, "core.query_local", root)
	free := indexes(k, unobserved)
	for n := 0; n < w.Locals; n++ {
		i := free[q.rng.Intn(len(free))]
		reads.read(perOp)
		a := k.Atoms[i]
		t := time.Now()
		res, err := sys.QueryLocal(ctx, k.Key(a), core.LocalBudget{MaxVars: w.Budget})
		d := time.Since(t)
		if err == nil {
			err = checkLocal(a, res.Score, res.Vars, w.Budget, tg.pinned[i])
		}
		if err == nil {
			run.Sample("grounding.local_ground_ms", "ms", ms(res.GroundTime))
		}
		run.Check(err == nil, "local: %v", err)
		locals.Record(err)
		q.locals = append(q.locals, ms(d))
	}
	rec.End(sp)

	upserts := run.Phase("upsert")
	sp = rec.Start(trace, "core.upsert", root)
	epochs := sys.Config().Epochs
	picked := 0
	for _, i := range q.rng.Perm(len(k.Atoms)) {
		if picked == w.Upserts {
			break
		}
		a := k.Atoms[i]
		if a.Evidence || tg.pinned[i] {
			continue
		}
		picked++
		tg.pinned[i] = true
		reads.read(perOp)
		t := time.Now()
		ds, err := sys.UpsertEvidence(ctx, k.Evidence, []storage.Row{k.EvidenceRow(a)})
		var st gibbs.RunStats
		var sc *core.Scores
		var resample time.Duration
		if err == nil {
			t1 := time.Now()
			sc, st, err = sys.InferIncrementalContext(ctx, epochs)
			resample = time.Since(t1)
		}
		d := time.Since(t)
		if err == nil {
			run.Sample("grounding.delta_ms", "ms", ms(ds.GroundTime))
			run.Sample("gibbs.upsert_epoch_ms", "ms", ms(resample)/float64(max(st.Epochs, 1)))
			want := 0.0
			if a.Truth {
				want = 1
			}
			switch p, ok := sc.TrueProb(k.Var, a.Vals()); {
			case ds.Structural:
				err = fmt.Errorf("upsert of %d was structural: %s", a.ID, ds.Reason)
			case ds.Pins != 1:
				err = fmt.Errorf("upsert of %d applied %d pins", a.ID, ds.Pins)
			case !ok || p != want:
				err = fmt.Errorf("upserted atom %d scores %v, pinned %v", a.ID, p, want)
			}
		}
		run.Check(err == nil, "upsert: %v", err)
		upserts.Record(err)
		q.upserts = append(q.upserts, ms(d))
	}
	rec.End(sp)
	reads.finish()
	if picked < w.Upserts {
		return fmt.Errorf("only %d atoms without evidence left for %d upserts", picked, w.Upserts)
	}
	return nil
}

// readPage is how many atoms one batch read looks up.
const readPage = 64

// reader times batch reads of one iteration's scores, each a lookup of
// readPage atoms' scores by key (Scores.TrueProb) on Zipf-skewed keys. The
// reads are spread over the iteration's query slice, so they sample the
// host over seconds rather than in one burst, and each iteration reads its
// own system, so the reported medians span several heap layouts.
type reader struct {
	run    *Run
	k      *KB
	scores *core.Scores
	vals   [][]storage.Value
	picks  []int // atom indexes, readPage per read
	next   int   // reads made
	lat    []float64
	phase  *Phase
}

// newReader makes a tenth of w.Reads untimed reads of scores, which warm
// the caches, and prepares w.Reads timed ones.
func newReader(run *Run, w Workload, k *KB, scores *core.Scores) *reader {
	r := &reader{run: run, k: k, scores: scores, phase: run.Phase("read")}
	r.vals = make([][]storage.Value, len(k.Atoms))
	for i, a := range k.Atoms {
		r.vals[i] = a.Vals()
	}
	warm := w.Reads / 10
	r.picks = zipfPicks(rand.New(rand.NewSource(k.Config.Seed)), indexes(k, all), readPage*(warm+w.Reads))
	for i := 0; i < warm; i++ {
		r.page()
	}
	r.lat = make([]float64, 0, w.Reads)
	return r
}

// left is the number of timed reads not made yet.
func (r *reader) left() int { return len(r.picks)/readPage - r.next }

// read makes up to n timed reads.
func (r *reader) read(n int) {
	for ; n > 0 && r.left() > 0; n-- {
		r.lat = append(r.lat, ms(r.page()))
	}
}

// page looks up the next page of scores, checks each is in [0,1], and
// returns the lookups' duration.
func (r *reader) page() time.Duration {
	page := r.picks[r.next*readPage : (r.next+1)*readPage]
	r.next++
	bad := 0
	t := time.Now()
	for _, a := range page {
		if p, ok := r.scores.TrueProb(r.k.Var, r.vals[a]); !ok || p < 0 || p > 1 {
			bad++
		}
	}
	d := time.Since(t)
	var err error
	if bad > 0 {
		err = fmt.Errorf("%d of %d score lookups failed or fell outside [0,1]", bad, readPage)
	}
	r.run.Check(err == nil, "read: %v", err)
	r.phase.Record(err)
	return d
}

// finish makes the reads still left and reports the iteration's read
// latencies.
func (r *reader) finish() {
	r.read(r.left())
	r.run.Latencies("read", r.lat, 0.99, latencyBlocks)
}

// singleProcessReplica builds and infers k without sharding.
func singleProcessReplica(ctx context.Context, k *KB) (*Built, error) {
	cfg := k.Config
	cfg.Shards = 0
	sys := core.NewSystem(cfg)
	err := sys.LoadProgram(k.Program)
	if err == nil {
		err = sys.LoadRows(k.Input, k.Inputs)
	}
	if err == nil {
		err = sys.LoadRows(k.Evidence, k.Rows)
	}
	var res *grounding.Result
	if err == nil {
		res, err = sys.GroundContext(ctx)
	}
	if err == nil {
		_, _, err = sys.InferContext(ctx, cfg.Epochs)
	}
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("single-process replica: %w", err)
	}
	return &Built{KB: k, Sys: sys, Res: res}, nil
}

// checkLocal validates a lazy answer: a score in [0,1] from at most budget
// sampled variables. An evidence or pinned atom is answered exactly, from
// no sampled variables; any other atom samples at least itself.
func checkLocal(a Atom, score float64, vars, budget int, pinned bool) error {
	exact := a.Evidence || pinned
	switch {
	case score < 0 || score > 1:
		return fmt.Errorf("lazy answer for atom %d scores %v", a.ID, score)
	case vars > budget || (exact && vars != 0) || (!exact && vars < 1):
		return fmt.Errorf("lazy answer for atom %d (evidence %v) sampled %d vars under budget %d", a.ID, exact, vars, budget)
	}
	return nil
}
