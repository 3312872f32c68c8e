package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricDef declares a metric name and unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd are the metrics an untraced run reports, on every workload. The
// tail percentiles of the same latencies are per-layer metrics (TailMetrics):
// on a shared 2-CPU host they swing with other tenants' CPU steal by more
// than any regression bound.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"ground_s", "s"},
	{"infer_s", "s"},
	{"f1", "ratio"},
	{"heap_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"local_p50_ms", "ms"},
	{"upsert_p50_ms", "ms"},
	{"ok_frac", "ratio"},
}

// TailMetrics are the highest supported percentiles of the end-to-end
// latencies.
var TailMetrics = []MetricDef{
	{"read_p99_ms", "ms"},
	{"local_p90_ms", "ms"},
	{"upsert_p90_ms", "ms"},
}

// Phase counts the operations of one phase of a run.
type Phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// Record counts one operation; a non-nil err counts it as failed.
func (p *Phase) Record(err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
	} else {
		p.Succeeded++
	}
}

// Run accumulates one benchmark run: metric samples, operation counts,
// failed output checks and (when traced) spans.
type Run struct {
	Traced   bool
	Rec      *Recorder
	samples  map[string][]float64
	units    map[string]string
	phases   []*Phase
	problems []string
	sizes    map[string]int
}

// NewRun starts an empty run; traced runs record spans.
func NewRun(traced bool) *Run {
	r := &Run{Traced: traced, samples: map[string][]float64{}, units: map[string]string{}, sizes: map[string]int{}}
	if traced {
		r.Rec = NewRecorder()
	}
	return r
}

// Sample adds one observation of a metric; the reported value is the
// median of its samples.
func (r *Run) Sample(name, unit string, v float64) {
	r.samples[name] = append(r.samples[name], v)
	r.units[name] = unit
}

// Phase returns the named phase, creating it on first use.
func (r *Run) Phase(name string) *Phase {
	for _, p := range r.phases {
		if p.Name == name {
			return p
		}
	}
	p := &Phase{Name: name}
	r.phases = append(r.phases, p)
	return p
}

// Check records a failed output check when ok is false. It returns ok.
func (r *Run) Check(ok bool, format string, args ...any) bool {
	if !ok && len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// Size records a workload size read at runtime, for provenance.
func (r *Run) Size(name string, v int) { r.sizes[name] = v }

// Totals sums operation counts over every phase.
func (r *Run) Totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// Metrics reduces every sampled metric to its median.
func (r *Run) Metrics() map[string]Metric {
	out := make(map[string]Metric, len(r.samples))
	for name, xs := range r.samples {
		out[name] = Metric{Value: median(append([]float64(nil), xs...)), Unit: r.units[name]}
	}
	return out
}

// Counts returns each metric's sample count.
func (r *Run) Counts() map[string]int {
	out := make(map[string]int, len(r.samples))
	for name, xs := range r.samples {
		out[name] = len(xs)
	}
	return out
}

// Latencies reports the median and an upper percentile q of a latency
// sample, in time order, as two metrics. Each figure is the median of that
// percentile over consecutive blocks of the sample — up to `blocks` of
// them, as many as each carry the percentile with enough samples beyond
// it — so a burst of interference confined to one block cannot move it.
// A sample too small to carry q at all fails the run's checks.
func (r *Run) Latencies(prefix string, lat []float64, q float64, blocks int) {
	r.Check(supported(len(lat), q), "%s: %d samples cannot carry p%g (need %d beyond it)", prefix, len(lat), 100*q, minBeyond)
	r.Sample(prefix+"_p50_ms", "ms", blockQuantile(lat, 0.5, blocks))
	r.Sample(fmt.Sprintf("%s_p%s_ms", prefix, pctName(q)), "ms", blockQuantile(lat, q, blocks))
}

// blockQuantile is the median over consecutive blocks of lat of their q-th
// percentiles, using the most blocks, up to max, that each carry q.
func blockQuantile(lat []float64, q float64, max int) float64 {
	b := max
	for b > 1 && !supported(len(lat)/b, q) {
		b--
	}
	n := len(lat) / b
	per := make([]float64, b)
	for i := range per {
		per[i] = quantile(append([]float64(nil), lat[i*n:(i+1)*n]...), q)
	}
	return median(per)
}

// pctName spells a quantile as a percentile label: 0.9 → "90", 0.99 → "99".
func pctName(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

// Select returns the declared metrics from the run's medians. A required
// metric the run did not produce, or any non-finite one, is a failed check;
// an optional one it did not produce (a layer the workload does not
// exercise) reports 0.
func (r *Run) Select(defs []MetricDef, required bool) map[string]Metric {
	all := r.Metrics()
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m, ok := all[d.Name]
		if !ok && !required {
			m, ok = Metric{Value: 0}, true
		}
		if !r.Check(ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s missing or not finite", d.Name) {
			m = Metric{Value: 0}
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out
}

// zipfPicks draws n elements of from with Zipf skew over a seeded
// permutation, so the hot keys differ between seeds. The head is flattened
// over about the hottest 2% of keys (Zipf offset v = len/50), so a run's
// figures do not hinge on which few keys a seed happens to make hottest.
func zipfPicks(rng *rand.Rand, from []int, n int) []int {
	perm := rng.Perm(len(from))
	z := rand.NewZipf(rng, 1.1, float64(max(1, len(from)/50)), uint64(len(from)-1))
	out := make([]int, n)
	for i := range out {
		out[i] = from[perm[z.Uint64()]]
	}
	return out
}

// indexes returns the atom indexes of k that pass keep.
func indexes(k *KB, keep func(Atom) bool) []int {
	var out []int
	for i, a := range k.Atoms {
		if keep(a) {
			out = append(out, i)
		}
	}
	return out
}

// all and unobserved select atoms: every atom, or those without evidence
// (the only ones a lazy query has to sample).
func all(Atom) bool          { return true }
func unobserved(a Atom) bool { return !a.Evidence }

// freshAtoms returns up to n non-evidence atom indexes in seeded order: the
// targets of evidence upserts, each pinning an atom no evidence covers yet.
func freshAtoms(rng *rand.Rand, k *KB, n int) []int {
	var out []int
	for _, i := range rng.Perm(len(k.Atoms)) {
		if !k.Atoms[i].Evidence {
			out = append(out, i)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
