package loadgen

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Op is one weighted operation in a workload mix. Do performs a single
// request and returns the response payload size; a non-nil error counts the
// request as failed (its latency is still recorded).
type Op struct {
	Name   string
	Weight float64
	Do     func(ctx context.Context) (bytes int64, err error)
}

// Mode selects the load-generation discipline.
type Mode string

// Load-generation modes.
const (
	// ModeOpen issues requests on a fixed schedule at the target QPS
	// regardless of completions, and measures each latency from the
	// request's *scheduled* start — a stalled server inflates the recorded
	// latency of every queued request instead of silently pausing the
	// generator (coordinated-omission resistance, as in wrk2/HdrHistogram).
	ModeOpen Mode = "open"
	// ModeClosed runs Workers loops back-to-back: each worker issues its
	// next request as soon as the previous completes. Latency is the bare
	// request duration; achieved QPS floats with server speed.
	ModeClosed Mode = "closed"
)

// Config parameterises one load run.
type Config struct {
	Ops      []Op
	Mode     Mode
	QPS      float64       // open-loop target rate (ignored when closed)
	Duration time.Duration // wall-clock run length
	Workers  int           // concurrent request slots
	Seed     uint64        // drives the op mix; same seed → same op sequence
}

// OpStats accumulates one operation's outcomes.
type OpStats struct {
	Name    string
	Count   uint64
	Errors  uint64
	Bytes   int64
	Latency *Hist
}

// Result is one finished load run.
type Result struct {
	Config      Config
	Began       time.Time
	Elapsed     time.Duration
	PerOp       map[string]*OpStats
	Total       *OpStats // all ops merged
	AchievedQPS float64
	// Dropped counts open-loop requests whose scheduled start was never
	// picked up before the run ended (generator overload).
	Dropped uint64
}

// workerState is the per-worker accumulator merged after the run.
type workerState struct {
	perOp map[string]*OpStats
}

func newWorkerState(ops []Op) *workerState {
	ws := &workerState{perOp: make(map[string]*OpStats, len(ops))}
	for _, op := range ops {
		ws.perOp[op.Name] = &OpStats{Name: op.Name, Latency: NewHist()}
	}
	return ws
}

// Run executes the configured load against the ops until Duration elapses or
// ctx is canceled. The op sequence is deterministic in Seed; wall-clock
// latencies are, of course, whatever the target produces.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Ops) == 0 {
		return nil, fmt.Errorf("loadgen: no ops configured")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeOpen
	}
	if cfg.Mode == ModeOpen && cfg.QPS <= 0 {
		return nil, fmt.Errorf("loadgen: open-loop mode needs a target QPS")
	}
	totalWeight := 0.0
	for _, op := range cfg.Ops {
		if op.Weight < 0 {
			return nil, fmt.Errorf("loadgen: op %q has negative weight", op.Name)
		}
		totalWeight += op.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("loadgen: op weights sum to zero")
	}

	// pickOp inverts the cumulative weight distribution; each request draws
	// its op from a shared seeded stream so the mix is deterministic.
	cum := make([]float64, len(cfg.Ops))
	acc := 0.0
	for i, op := range cfg.Ops {
		acc += op.Weight / totalWeight
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	pickOp := func(u float64) *Op {
		return &cfg.Ops[sort.SearchFloat64s(cum, u)]
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration+5*time.Second)
	defer cancel()

	began := time.Now()
	deadline := began.Add(cfg.Duration)

	states := make([]*workerState, cfg.Workers)
	var wg sync.WaitGroup
	var dropped uint64

	execute := func(ws *workerState, op *Op, scheduled time.Time) {
		reqStart := time.Now()
		bytes, err := op.Do(runCtx)
		end := time.Now()
		lat := end.Sub(reqStart)
		if !scheduled.IsZero() {
			// Open loop: latency includes the time the request spent waiting
			// past its scheduled start for a free worker.
			lat = end.Sub(scheduled)
		}
		st := ws.perOp[op.Name]
		st.Count++
		st.Bytes += bytes
		st.Latency.Record(lat)
		if err != nil {
			st.Errors++
		}
	}

	switch cfg.Mode {
	case ModeOpen:
		type ticket struct {
			op        *Op
			scheduled time.Time
		}
		// The queue holds every not-yet-started request; sizing it for the
		// whole run means a stalled server queues tickets (whose eventual
		// latency is measured from the schedule) rather than blocking the
		// dispatcher.
		capacity := int(cfg.QPS*cfg.Duration.Seconds()) + cfg.Workers
		queue := make(chan ticket, capacity)
		for i := 0; i < cfg.Workers; i++ {
			ws := newWorkerState(cfg.Ops)
			states[i] = ws
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range queue {
					if runCtx.Err() != nil {
						return
					}
					execute(ws, t.op, t.scheduled)
				}
			}()
		}
		interval := time.Duration(float64(time.Second) / cfg.QPS)
		mixRng := newSplitmix64(cfg.Seed)
		for next := began; next.Before(deadline) && runCtx.Err() == nil; next = next.Add(interval) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			select {
			case queue <- ticket{op: pickOp(mixRng.float64v()), scheduled: next}:
			default:
				dropped++
			}
		}
		close(queue)
	case ModeClosed:
		for i := 0; i < cfg.Workers; i++ {
			ws := newWorkerState(cfg.Ops)
			states[i] = ws
			// Per-worker seed: deterministic, and workers draw independent
			// op streams.
			mixRng := newSplitmix64(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && runCtx.Err() == nil {
					execute(ws, pickOp(mixRng.float64v()), time.Time{})
				}
			}()
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}

	wg.Wait()
	elapsed := time.Since(began)

	res := &Result{
		Config:  cfg,
		Began:   began,
		Elapsed: elapsed,
		PerOp:   make(map[string]*OpStats, len(cfg.Ops)),
		Total:   &OpStats{Name: "total", Latency: NewHist()},
		Dropped: dropped,
	}
	for _, op := range cfg.Ops {
		merged := &OpStats{Name: op.Name, Latency: NewHist()}
		for _, ws := range states {
			st := ws.perOp[op.Name]
			merged.Count += st.Count
			merged.Errors += st.Errors
			merged.Bytes += st.Bytes
			merged.Latency.Merge(st.Latency)
		}
		res.PerOp[op.Name] = merged
		res.Total.Count += merged.Count
		res.Total.Errors += merged.Errors
		res.Total.Bytes += merged.Bytes
		res.Total.Latency.Merge(merged.Latency)
	}
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Total.Count) / elapsed.Seconds()
	}
	return res, nil
}
