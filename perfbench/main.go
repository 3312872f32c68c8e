// Command perfbench is the repository's benchmark. It drives the system
// through its Go APIs on one of its workloads, times every call into a
// layer from its own code, checks the outputs, and prints one JSON result
// line:
//
//	go run . --workload gwdb-serve --seed 1 --seconds 45 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around each layer call and reports the
// per-layer metrics instead. README.md explains the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// latencyBlocks is how many consecutive blocks a latency sample is cut into
// at most; its percentiles are the medians of the per-block ones.
const latencyBlocks = 5

// HeldOutSeed is the seed later performance claims are re-checked on; it is
// never used while tuning a change.
const HeldOutSeed = 7

// Workload is one benchmark input set and its traffic.
type Workload struct {
	Name  string
	Serve bool
	// KB generation: Wells GWDB wells in all (GWDB) or Side×Side cells per
	// tile (NYCCAS), split over Tiles tiles. A run cycles through Inputs
	// distinct KBs generated from the seed (see Generate).
	Wells, Side, Tiles, Epochs, Shards, Inputs int

	// Batch: build iterations within the measured time, each preceded by
	// SetupReps extra set-ups, the first GroundReps of which also ground,
	// and followed by Reads score reads and a query slice of Locals lazy
	// queries and Upserts evidence upserts. Budget is the lazy-query
	// variable budget (both kinds).
	SetupReps, GroundReps          int
	MinIters, MaxIters             int
	Reads, Locals, Upserts, Budget int

	// Serve: server boots during set-up, and the open-loop traffic over
	// Conns keep-alive connections.
	Boots                          int
	Conns                          int
	ReadRate, LazyRate, UpsertRate float64
	MinUpserts                     int
}

// Generate makes the workload's input-th KB for a seed. Input 0 is the
// seed's own KB; the others come from seeds derived from it, so a run's
// medians span several independently generated KBs rather than hinging on
// one.
func (w Workload) Generate(seed int64, input int) *KB {
	s := seed + int64(input)*1_000_003
	if w.Wells > 0 {
		return GWDB(w.Wells, w.Tiles, s, w.Epochs)
	}
	return NYCCAS(w.Side, w.Tiles, s, w.Epochs, w.Shards)
}

// Workloads are the benchmark's workloads at their committed sizes.
var Workloads = []Workload{
	{Name: "nyccas-sharded", Side: 27, Tiles: 9, Epochs: 1000, Shards: 2, Inputs: 3, SetupReps: 4, GroundReps: 2, MinIters: 4, MaxIters: 50,
		Reads: 1000, Locals: 60, Upserts: 30, Budget: 16},
	{Name: "gwdb-serve", Serve: true, Wells: 2000, Tiles: 8, Epochs: 400, Inputs: 3, Budget: 16,
		Boots: 12, Conns: 2, ReadRate: 1000, LazyRate: 20, UpsertRate: 15, MinUpserts: 300},
}

// Manual workloads run by name like the benchmark's own but are not part of
// BENCHMARK.json. gwdb-build is the grounding-bound GWDB batch: its figures
// (most of all its batch reads, lazy queries and upserts) followed the
// shared host's speed from run to run by more than their bounds, so it is
// kept for investigating grounding by hand.
var Manual = []Workload{
	{Name: "gwdb-build", Wells: 4800, Tiles: 16, Epochs: 400, Inputs: 3, SetupReps: 4, MinIters: 4, MaxIters: 50,
		Reads: 1000, Locals: 60, Upserts: 50, Budget: 16},
}

// Result is the final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is the detail line printed before the result: provenance, per
// phase operation counts, failed checks, sample counts and every metric.
type Report struct {
	Provenance Provenance           `json:"provenance"`
	Phases     []*Phase             `json:"phases"`
	Problems   []string             `json:"problems,omitempty"`
	Samples    map[string]int       `json:"samples"`
	Metrics    map[string]Metric    `json:"metrics"`
	TraceFile  string               `json:"trace_file,omitempty"`
	Raw        map[string][]float64 `json:"raw"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 45, "measuring time per run")
	trace := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds int, traced bool, workdir string) error {
	var w *Workload
	for _, ws := range [][]Workload{Workloads, Manual} {
		for i := range ws {
			if ws[i].Name == name {
				w = &ws[i]
			}
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	res, rep, err := Execute(context.Background(), *w, seed, seconds, traced, workdir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}

// Execute runs one workload and returns the result line and its report.
func Execute(ctx context.Context, w Workload, seed int64, seconds int, traced bool, workdir string) (Result, Report, error) {
	run := NewRun(traced)
	var err error
	if w.Serve {
		err = runServe(ctx, run, w, seed, seconds, workdir)
	} else {
		err = runBatch(ctx, run, w, seed, seconds)
	}
	if err != nil {
		return Result{}, Report{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	attempted, failed := run.Totals()
	if attempted > 0 {
		run.Sample("ok_frac", "ratio", float64(attempted-failed)/float64(attempted))
	}
	run.Sample("go.gc_cycles", "count", float64(gcCycles()))
	if traced {
		traceMetrics(run)
	}

	rep := Report{
		Provenance: provenance(w, seed, seconds, traced, run.sizes),
		Phases:     run.phases,
		Samples:    run.Counts(),
		Raw:        run.samples,
		Metrics:    run.Metrics(),
	}
	res := Result{Attempted: max(attempted, 1), Failed: failed}
	if traced {
		res.Metrics = run.Select(PerLayer(), false)
		rep.TraceFile = filepath.Join(workdir, fmt.Sprintf("trace-%s-%d-%d.json", w.Name, seed, time.Now().UnixNano()))
		if err := run.Rec.WriteFile(rep.TraceFile); err != nil {
			return Result{}, Report{}, err
		}
	} else {
		res.Metrics = run.Select(EndToEnd, true)
	}
	rep.Problems = run.problems
	res.Correct = len(run.problems) == 0
	return res, rep, nil
}
