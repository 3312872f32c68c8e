package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Open-loop request kinds.
const (
	kindRead = iota
	kindLazy
	kindUpsert
)

// readShapes are the read query shapes, dealt round-robin.
var readShapes = []string{"point", "range", "knn"}

// knnK is the neighbour count of a k-NN read.
const knnK = 5

// served is one booted server listening on loopback.
type served struct {
	kb   *KB
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	base string
}

// close stops the HTTP server, waits for it, then closes the KB server.
func (s *served) close() error {
	err := s.hs.Close()
	<-s.done
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// runServe boots the resident server w.Boots times (set-up). Boot i serves
// input i mod w.Inputs, so set-up figures span several KBs and every
// repeated input must reproduce its first boot's f1. Each of the last
// w.Inputs boots, one per input, then takes an equal share of the measured
// time of open-loop traffic before the next boot, and the latencies pool
// over these segments, so a run's figures do not hinge on one KB.
func runServe(ctx context.Context, run *Run, w Workload, seed int64, seconds int, workdir string) error {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f1s := map[int]float64{}
	boots := run.Phase("boot")
	lat := newServeLatencies(run)
	segment := time.Duration(seconds) * time.Second / time.Duration(w.Inputs)
	for i := 0; i < w.Boots; i++ {
		in := i % w.Inputs
		s, f1, err := boot(ctx, run, w, func() *KB { return w.Generate(seed, in) }, filepath.Join(dir, fmt.Sprintf("evidence-%d.wal", i)), i)
		boots.Record(err)
		if err != nil {
			return err
		}
		if first, ok := f1s[in]; ok {
			run.Check(f1 == first, "boot %d f1 %.6f does not repeat input %d's first boot's %.6f", i, f1, in, first)
		} else {
			f1s[in] = f1
			run.Check(f1 > 0 && f1 <= 1, "input %d: f1 %.4f outside (0,1]", in, f1)
		}
		if seg := i - (w.Boots - w.Inputs); seg >= 0 {
			err = traffic(ctx, run, w, s, seed, seg, segment, lat)
		}
		if cerr := s.close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing boot %d: %w", i, cerr)
		}
		if err != nil {
			return err
		}
	}
	run.Check(len(f1s) == w.Inputs && w.Boots > w.Inputs, "%d boots over %d inputs: no boot repeated", w.Boots, w.Inputs)
	lat.report()
	return nil
}

// boot generates and loads the KB, grounds it, starts a durable server
// (WAL fsync on every append) and warms it up. Set-up time covers all of it.
func boot(ctx context.Context, run *Run, w Workload, gen func() *KB, walPath string, i int) (*served, float64, error) {
	rec := run.Rec
	trace := fmt.Sprintf("boot-%d", i)
	root := rec.Start(trace, "serve.boot", -1)
	defer rec.End(root)
	settle()
	t0 := time.Now()
	reg := obs.NewRegistry()
	b, err := buildKB(ctx, run, func() *KB {
		k := gen()
		k.Config.Metrics = reg
		return k
	}, trace, root)
	if err != nil {
		return nil, 0, err
	}
	var tracer *obs.Tracer
	if run.Traced {
		tracer = obs.NewTracer(obs.TracerOptions{RingSize: 1 << 16})
	}
	srv, err := serve.New(b.Sys, serve.Options{Metrics: reg, WALPath: walPath, WALSyncEvery: 1, Tracer: tracer})
	if err != nil {
		b.Sys.Close()
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	settle()
	sp := rec.Start(trace, "serve.warmup", root)
	t := time.Now()
	err = srv.Warmup(ctx, w.Epochs)
	infer := time.Since(t)
	rec.End(sp)
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("warmup: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s := &served{kb: b.KB, srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	setup := time.Since(t0)

	f1, err := servedF1(ctx, s)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	run.Sample("setup_s", "s", setup.Seconds())
	run.Sample("ground_s", "s", b.Build.Seconds())
	run.Sample("infer_s", "s", infer.Seconds())
	run.Sample("heap_mb", "MB", liveHeapMB())
	run.Sample("f1", "ratio", f1)
	if run.Traced {
		run.Sample("gibbs.epoch_ms", "ms", ms(infer)/float64(w.Epochs))
	}
	return s, f1, nil
}

// servedF1 scores the warm server's answers over one range query covering
// the whole KB.
func servedF1(ctx context.Context, s *served) (float64, error) {
	q := url.Values{"relation": {s.kb.Var}, "minx": {"-1e9"}, "miny": {"-1e9"}, "maxx": {"1e9"}, "maxy": {"1e9"}}
	var resp scoreResponse
	if err := getJSON(ctx, http.DefaultClient, s.base+"/v1/score/range?"+q.Encode(), nil, &resp); err != nil {
		return 0, fmt.Errorf("reading all scores: %w", err)
	}
	defer http.DefaultClient.CloseIdleConnections()
	scores := make(map[string]float64, len(resp.Atoms))
	for _, a := range resp.Atoms {
		scores[a.Key] = a.Score
	}
	if len(scores) != len(s.kb.Atoms) {
		return 0, fmt.Errorf("range over the whole KB returned %d atoms, want %d", len(scores), len(s.kb.Atoms))
	}
	return s.kb.F1(func(a Atom) (float64, bool) {
		p, ok := scores[s.kb.Key(a)]
		return p, ok
	}), nil
}

// scoreResponse is the part of a score-query answer the benchmark checks.
type scoreResponse struct {
	Generation uint64 `json:"generation"`
	Stale      bool   `json:"stale"`
	Budget     int    `json:"budget"`
	Atoms      []struct {
		Key       string  `json:"key"`
		Score     float64 `json:"score"`
		LocalVars int     `json:"local_vars"`
	} `json:"atoms"`
}

// has reports whether the answer includes the atom with the given key.
func (r *scoreResponse) has(key string) bool {
	for _, a := range r.Atoms {
		if a.Key == key {
			return true
		}
	}
	return false
}

// upsertResponse is the part of an evidence answer the benchmark checks.
type upsertResponse struct {
	Generation uint64 `json:"generation"`
	Pins       int    `json:"pins"`
	Structural bool   `json:"structural"`
}

// getJSON issues a GET (with optional headers) and decodes a 200 answer.
func getJSON(ctx context.Context, c *http.Client, u string, hdr http.Header, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	return doJSON(c, req, v)
}

// doJSON sends req and decodes a 200 answer into v, draining the body so
// the connection is reused.
func doJSON(c *http.Client, req *http.Request, v any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

// pin is an acknowledged evidence upsert: from generation gen on, the atom
// must score want.
type pin struct {
	gen  uint64
	want float64
}

// pins records acknowledged upserts for the read-your-evidence check.
type pins struct {
	mu sync.Mutex
	m  map[string]pin
}

func (p *pins) add(key string, v pin) {
	p.mu.Lock()
	p.m[key] = v
	p.mu.Unlock()
}

func (p *pins) get(key string) (pin, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.m[key]
	return v, ok
}

// checkScores validates an answer: scores in [0,1], and any atom pinned at
// or before the answer's generation scores its pinned value.
func checkScores(r *scoreResponse, pinned *pins) error {
	for _, a := range r.Atoms {
		if a.Score < 0 || a.Score > 1 {
			return fmt.Errorf("atom %s scores %v", a.Key, a.Score)
		}
		if p, ok := pinned.get(a.Key); ok && r.Generation >= p.gen && a.Score != p.want {
			return fmt.Errorf("atom %s scores %v at generation %d, pinned %v at %d", a.Key, a.Score, r.Generation, p.want, p.gen)
		}
	}
	return nil
}

// serveLatencies pools a run's client-side latencies over its traffic
// segments, each kind in time order.
type serveLatencies struct {
	run                          *Run
	reads, locals, upserts, late []float64
	byShape                      map[string][]float64
	stale, lazy                  int
}

func newServeLatencies(run *Run) *serveLatencies {
	return &serveLatencies{run: run, byShape: map[string][]float64{}}
}

// report turns the pooled latencies into metrics.
func (l *serveLatencies) report() {
	run := l.run
	run.Latencies("read", l.reads, 0.99, latencyBlocks)
	run.Latencies("local", l.locals, 0.9, latencyBlocks)
	run.Latencies("upsert", l.upserts, 0.9, latencyBlocks)
	for _, shape := range readShapes {
		run.Sample("serve."+shape+"_p50_ms", "ms", quantile(l.byShape[shape], 0.5))
	}
	run.Sample("serve.generator_late_p99_ms", "ms", quantile(l.late, 0.99))
	run.Sample("serve.stale_frac", "ratio", float64(l.stale)/float64(max(len(l.reads), 1)))
	run.Sample("serve.lazy_frac", "ratio", float64(l.lazy)/float64(max(len(l.locals), 1)))
	run.Size("reads", len(l.reads))
	run.Size("lazy_reads", len(l.locals))
	run.Size("upserts", len(l.upserts))
}

// traffic sends segment seg's open-loop schedule, lasting d, to s. It adds
// the client-side latencies to lat and reports server-side counter deltas
// and (traced) the server's stage self times.
func traffic(ctx context.Context, run *Run, w Workload, s *served, seed int64, seg int, d time.Duration, lat *serveLatencies) error {
	k := s.kb
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e + int64(seg)))
	secs := d.Seconds()
	nReads := int(w.ReadRate * secs)
	nLazy := int(w.LazyRate * secs)
	nUp := max((w.MinUpserts+w.Inputs-1)/w.Inputs, int(w.UpsertRate*secs))
	readAt := zipfPicks(rng, indexes(k, all), nReads)
	lazyAt := zipfPicks(rng, indexes(k, unobserved), nLazy)
	upAt := freshAtoms(rng, k, nUp)
	if len(upAt) < nUp {
		return fmt.Errorf("only %d atoms without evidence for %d upserts", len(upAt), nUp)
	}
	ops := Schedule([]float64{w.ReadRate, w.LazyRate, float64(nUp) / secs}, []int{nReads, nLazy, nUp})

	clients := make([]*http.Client, w.Conns)
	for i := range clients {
		clients[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		}
		defer clients[i].CloseIdleConnections()
	}
	pinned := &pins{m: map[string]pin{}}
	byKey := k.byKey()
	// Set by the op's own request; read after RunOpenLoop has waited for
	// every request.
	stale, lazy := make([]bool, nReads), make([]bool, nLazy)
	rec := run.Rec
	traceID := func(i int) string { return fmt.Sprintf("%016x%04x%012x", uint64(seed), seg, uint64(i+1)) }

	do := func(ctx context.Context, conn int, op Op) error {
		c := clients[conn]
		idx := op.Arg + op.Kind*len(ops) // unique per op
		tid := traceID(idx)
		var hdr http.Header
		if run.Traced {
			hdr = http.Header{"Traceparent": {"00-" + tid + "-" + fmt.Sprintf("%016x", uint64(idx+1)) + "-01"}}
		}
		var name, u string
		var a Atom
		switch op.Kind {
		case kindRead:
			a = k.Atoms[readAt[op.Arg]]
			name = readShapes[op.Arg%len(readShapes)]
			u = readURL(s.base, k.Var, name, a)
		case kindLazy:
			a = k.Atoms[lazyAt[op.Arg]]
			name = "lazy"
			u = readURL(s.base, k.Var, "point", a) + "&budget=" + strconv.Itoa(w.Budget)
		default:
			a = k.Atoms[upAt[op.Arg]]
			name = "upsert"
		}
		sp := rec.Start(tid, "client."+name, -1)
		defer rec.End(sp)
		if op.Kind == kindUpsert {
			return upsert(ctx, c, s.base, k, a, hdr, pinned)
		}
		var r scoreResponse
		if err := getJSON(ctx, c, u, hdr, &r); err != nil {
			return err
		}
		// k-NN may rank co-located atoms past k; point and range windows
		// always contain the queried atom.
		if name == "knn" && len(r.Atoms) != min(knnK, len(k.Atoms)) || name != "knn" && !r.has(k.Key(a)) {
			return fmt.Errorf("%s query around atom %d returned %d atoms without it", name, a.ID, len(r.Atoms))
		}
		if err := checkScores(&r, pinned); err != nil {
			return err
		}
		if r.Stale && op.Kind == kindRead {
			stale[op.Arg] = true
		}
		if op.Kind == kindLazy && r.Budget == w.Budget && !r.Stale {
			for _, ra := range r.Atoms {
				p, ok := pinned.get(ra.Key)
				if err := checkLocal(byKey[ra.Key], ra.Score, ra.LocalVars, w.Budget, ok && r.Generation >= p.gen); err != nil {
					return err
				}
			}
			lazy[op.Arg] = true
		}
		return nil
	}

	before, err := scrape(ctx, s.base)
	if err != nil {
		return err
	}
	outcomes := RunOpenLoop(ctx, ops, w.Conns, do)
	after, err := scrape(ctx, s.base)
	if err != nil {
		return err
	}

	phases := []*Phase{run.Phase("read"), run.Phase("lazy"), run.Phase("upsert")}
	for _, o := range outcomes {
		phases[o.Op.Kind].Record(o.Err)
		run.Check(o.Err == nil, "%s: %v", []string{"read", "lazy", "upsert"}[o.Op.Kind], o.Err)
		l := ms(o.Latency)
		if o.Err != nil {
			// A failed request misses any latency limit.
			l = ms(10 * time.Second)
		}
		lat.late = append(lat.late, ms(o.Late))
		switch o.Op.Kind {
		case kindRead:
			lat.reads = append(lat.reads, l)
			shape := readShapes[o.Op.Arg%len(readShapes)]
			lat.byShape[shape] = append(lat.byShape[shape], l)
			if stale[o.Op.Arg] {
				lat.stale++
			}
		case kindLazy:
			lat.locals = append(lat.locals, l)
			if lazy[o.Op.Arg] {
				lat.lazy++
			}
		default:
			lat.upserts = append(lat.upserts, l)
		}
	}
	serverCounters(run, before, after)

	if err := verifyPins(ctx, run, s, pinned); err != nil {
		return err
	}
	if run.Traced {
		return collectServerTraces(ctx, run, s.base)
	}
	return nil
}

// readURL builds a read query of the given shape around atom a.
func readURL(base, rel, shape string, a Atom) string {
	x, y := strconv.FormatFloat(a.Loc.X, 'g', -1, 64), strconv.FormatFloat(a.Loc.Y, 'g', -1, 64)
	switch shape {
	case "range":
		const half = 10
		return fmt.Sprintf("%s/v1/score/range?relation=%s&minx=%g&miny=%g&maxx=%g&maxy=%g",
			base, rel, a.Loc.X-half, a.Loc.Y-half, a.Loc.X+half, a.Loc.Y+half)
	case "knn":
		return fmt.Sprintf("%s/v1/score/knn?relation=%s&x=%s&y=%s&k=%d", base, rel, x, y, knnK)
	default:
		return fmt.Sprintf("%s/v1/score/point?relation=%s&x=%s&y=%s", base, rel, x, y)
	}
}

// upsert posts one evidence row pinning a's truth and records the pin.
func upsert(ctx context.Context, c *http.Client, base string, k *KB, a Atom, hdr http.Header, pinned *pins) error {
	row := k.EvidenceRow(a)
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	body, err := json.Marshal(map[string]any{"relation": k.Evidence, "rows": [][]string{cells}})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/evidence", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for h, vs := range hdr {
		req.Header[h] = vs
	}
	var r upsertResponse
	if err := doJSON(c, req, &r); err != nil {
		return err
	}
	if r.Structural || r.Pins != 1 {
		return fmt.Errorf("upsert of atom %d: structural=%v pins=%d", a.ID, r.Structural, r.Pins)
	}
	want := 0.0
	if a.Truth {
		want = 1
	}
	pinned.add(k.Key(a), pin{gen: r.Generation, want: want})
	return nil
}

// verifyPins re-reads every upserted atom after the traffic: each must
// score its pinned value at a generation at or after its upsert's.
func verifyPins(ctx context.Context, run *Run, s *served, pinned *pins) error {
	ph := run.Phase("verify")
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	pinned.mu.Lock()
	keys := sortedKeys(pinned.m)
	pinned.mu.Unlock()
	byKey := s.kb.byKey()
	for _, key := range keys {
		p, _ := pinned.get(key)
		var r scoreResponse
		err := getJSON(ctx, c, readURL(s.base, s.kb.Var, "point", byKey[key]), nil, &r)
		if err == nil {
			err = checkScores(&r, pinned)
		}
		if err == nil && (r.Generation < p.gen || !r.has(key)) {
			err = fmt.Errorf("re-read of %s at generation %d (pinned at %d) did not return it", key, r.Generation, p.gen)
		}
		ph.Record(err)
		run.Check(err == nil, "verify: %v", err)
	}
	return nil
}

// scrape reads the server's /metrics exposition into series → value.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	defer http.DefaultClient.CloseIdleConnections()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serverCounters turns /metrics deltas over the traffic into per-layer
// metrics, and checks that no upsert fell back to a structural re-ground.
func serverCounters(run *Run, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	meanMs := func(hist string) float64 {
		n := d(hist + "_count")
		if n == 0 {
			return 0
		}
		return 1000 * d(hist+"_sum") / n
	}
	run.Sample("serve.shed", "count", d("sya_serve_shed_total"))
	hits := d("sya_local_cache_hits_total") + d("sya_local_cache_interior_hits_total")
	if total := hits + d("sya_local_cache_misses_total"); total > 0 {
		run.Sample("serve.local_hit_frac", "ratio", hits/total)
	}
	run.Sample("grounding.local_ground_ms", "ms", meanMs("sya_local_ground_seconds"))
	run.Sample("wal.fsyncs", "count", d("sya_wal_fsyncs_total"))
	run.Sample("wal.fsync_ms", "ms", meanMs("sya_wal_fsync_seconds"))
	run.Sample("grounding.delta_ms", "ms", meanMs("sya_delta_ground_seconds"))
	structural := d("sya_delta_structural_total")
	run.Sample("grounding.delta_structural", "count", structural)
	run.Check(structural == 0, "%v upserts fell back to a structural re-ground", structural)
	run.Sample("gibbs.upsert_epoch_ms", "ms", meanMs("sya_epoch_seconds"))
}

// collectServerTraces fetches the server's request trace trees, hangs each
// under the client span that carried its traceparent, and reports each
// server stage's median self time.
func collectServerTraces(ctx context.Context, run *Run, base string) error {
	var body struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	c := &http.Client{Timeout: 60 * time.Second}
	defer c.CloseIdleConnections()
	if err := getJSON(ctx, c, base+"/debug/traces", nil, &body); err != nil {
		return fmt.Errorf("fetching traces: %w", err)
	}
	rec := run.Rec
	clientSpan := map[string]int{}
	for i, sp := range rec.Spans() {
		if sp.Parent == -1 && strings.HasPrefix(sp.Name, "client.") {
			clientSpan[sp.Trace] = i
		}
	}
	var stageIdx []int
	for _, tr := range body.Traces {
		parent, ok := clientSpan[tr.TraceID]
		if !ok {
			continue
		}
		t0 := rec.Offset(tr.Start)
		idx := make([]int, len(tr.Spans))
		for i, s := range tr.Spans {
			p := parent
			if s.Parent >= 0 {
				p = idx[s.Parent]
			}
			start := t0 + time.Duration(s.StartUs)*time.Microsecond
			idx[i] = rec.Add(Span{Trace: tr.TraceID, Name: "server." + s.Name, Parent: p,
				Start: start, End: start + time.Duration(s.DurUs)*time.Microsecond})
			if s.Parent >= 0 {
				stageIdx = append(stageIdx, idx[i])
			}
		}
	}
	spans := rec.Spans()
	self := SelfTimes(spans)
	for _, i := range stageIdx {
		run.Sample("serve.stage."+strings.TrimPrefix(spans[i].Name, "server.")+"_ms", "ms", ms(self[i]))
	}
	run.Size("server_traces", len(body.Traces))
	return nil
}
