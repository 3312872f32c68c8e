package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Op is one scheduled request of an open-loop run: it is due at Due after
// the run starts, whether or not earlier requests have finished.
type Op struct {
	Due  time.Duration
	Kind int
	Arg  int
}

// Outcome is what happened to one Op. Latency runs from the op's due time
// to its completion, so time an op spent queued behind a stalled one is
// charged to it; Late is how far behind schedule the generator released it.
type Outcome struct {
	Op      Op
	Conn    int
	Latency time.Duration
	Late    time.Duration
	Err     error
}

// Schedule merges fixed-rate streams into one due-ordered schedule. Stream
// k sends counts[k] ops of kind k at rates[k] per second, the i-th due at
// (i+½)/rate, so streams interleave instead of all firing at time zero.
func Schedule(rates []float64, counts []int) []Op {
	var ops []Op
	for k, rate := range rates {
		for i := 0; i < counts[k]; i++ {
			due := time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
			ops = append(ops, Op{Due: due, Kind: k, Arg: i})
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].Due < ops[b].Due })
	return ops
}

// RunOpenLoop releases ops at their due times onto a shared queue that conns
// workers drain, each owning one connection; do executes one op on a given
// connection. It returns one Outcome per op, in schedule order, once every
// released op has finished. Cancelling ctx stops further releases; ops not
// released are reported with the context's error.
func RunOpenLoop(ctx context.Context, ops []Op, conns int, do func(ctx context.Context, conn int, op Op) error) []Outcome {
	out := make([]Outcome, len(ops))
	type item struct {
		idx int
		due time.Time
	}
	// Sized to the whole schedule so the generator never blocks on busy
	// connections: its lateness then measures only its own scheduling.
	queue := make(chan item, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for it := range queue {
				err := do(ctx, conn, ops[it.idx])
				out[it.idx].Conn = conn
				out[it.idx].Latency = time.Since(it.due)
				out[it.idx].Err = err
			}
		}(c)
	}
	released := 0
	for i, op := range ops {
		due := start.Add(op.Due)
		if !sleepUntil(ctx, due) {
			break
		}
		out[i].Op = op
		out[i].Late = max(0, time.Since(due))
		queue <- item{idx: i, due: due}
		released++
	}
	close(queue)
	wg.Wait()
	for i := released; i < len(ops); i++ {
		out[i].Op = ops[i]
		out[i].Err = ctx.Err()
	}
	return out
}

// sleepUntil waits until t and reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	wait := time.Until(t)
	if wait <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
