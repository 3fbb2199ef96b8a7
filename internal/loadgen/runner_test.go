package loadgen

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunClosedLoopCounts(t *testing.T) {
	var calls, fails atomic.Uint64
	cfg := Config{
		Mode:     ModeClosed,
		Duration: 200 * time.Millisecond,
		Workers:  4,
		Seed:     1,
		Ops: []Op{
			{Name: "ok", Weight: 3, Do: func(context.Context) (int64, error) {
				calls.Add(1)
				return 10, nil
			}},
			{Name: "bad", Weight: 1, Do: func(context.Context) (int64, error) {
				fails.Add(1)
				return 0, errors.New("boom")
			}},
		},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Count != calls.Load()+fails.Load() {
		t.Errorf("total count %d != executed %d", res.Total.Count, calls.Load()+fails.Load())
	}
	if res.Total.Errors != fails.Load() {
		t.Errorf("errors %d != failing op calls %d", res.Total.Errors, fails.Load())
	}
	if res.PerOp["ok"].Bytes != int64(calls.Load())*10 {
		t.Errorf("bytes %d, want %d", res.PerOp["ok"].Bytes, calls.Load()*10)
	}
	// The 3:1 mix should hold roughly over thousands of fast calls.
	okN, badN := float64(res.PerOp["ok"].Count), float64(res.PerOp["bad"].Count)
	if ratio := okN / (okN + badN); ratio < 0.65 || ratio > 0.85 {
		t.Errorf("mix ratio %.2f, want ≈ 0.75", ratio)
	}
	if res.Total.Errors == 0 {
		t.Error("error count should be non-zero")
	}
	if res.AchievedQPS == 0 {
		t.Error("achieved QPS should be non-zero")
	}
}

// TestRunOpenLoopSchedulesLatency checks coordinated-omission resistance:
// with one worker, a 50ms handler, and a 100 QPS schedule, queued requests
// must record latency from their scheduled start — far above the 50ms a
// closed-loop measurement would report.
func TestRunOpenLoopSchedulesLatency(t *testing.T) {
	cfg := Config{
		Mode:     ModeOpen,
		QPS:      100,
		Duration: 500 * time.Millisecond,
		Workers:  1,
		Seed:     1,
		Ops: []Op{{Name: "slow", Weight: 1, Do: func(context.Context) (int64, error) {
			time.Sleep(50 * time.Millisecond)
			return 0, nil
		}}},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Count < 5 {
		t.Fatalf("too few requests completed: %d", res.Total.Count)
	}
	// The single worker serves ~20 QPS against a 100 QPS schedule; by the
	// later requests the backlog-inflated latency far exceeds service time.
	if maxLat := res.Total.Latency.Max(); maxLat < 150*time.Millisecond {
		t.Errorf("max recorded latency %v; want backlog-inflated latency >> 50ms service time", maxLat)
	}
}

// TestRunWarmupWindow: warm-up samples are dropped from the counts, so the
// rates must divide by the window that is left, not the whole run. Dividing
// by the full elapsed time read 180 QPS for every 200 offered at a 0.1
// warm-up. The check is arithmetic, not a wall-clock tolerance, so a loaded
// machine cannot fail it.
func TestRunWarmupWindow(t *testing.T) {
	cfg := Config{
		Mode:       ModeOpen,
		QPS:        500,
		Duration:   400 * time.Millisecond,
		Workers:    4,
		Seed:       1,
		WarmupFrac: 0.1,
		Ops:        []Op{{Name: "null", Weight: 1, Do: func(context.Context) (int64, error) { return 0, nil }}},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := res.Elapsed - 40*time.Millisecond
	if res.Measured != window {
		t.Errorf("measured window %v, want elapsed %v minus the 40ms warm-up", res.Measured, res.Elapsed)
	}
	if res.Total.Count == 0 {
		t.Fatal("no request counted after the warm-up")
	}
	want := float64(res.Total.Count) / window.Seconds()
	if math.Abs(res.AchievedQPS-want) > 1e-6 {
		t.Errorf("achieved %.2f QPS, want %d requests / %v = %.2f", res.AchievedQPS, res.Total.Count, window, want)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("no ops accepted")
	}
	if _, err := Run(context.Background(), Config{Mode: ModeOpen, Ops: []Op{{Name: "x", Weight: 1, Do: func(context.Context) (int64, error) { return 0, nil }}}}); err == nil {
		t.Error("open loop without QPS accepted")
	}
	if _, err := Run(context.Background(), Config{Mode: "weird", QPS: 1, Ops: []Op{{Name: "x", Weight: 1, Do: func(context.Context) (int64, error) { return 0, nil }}}}); err == nil {
		t.Error("unknown mode accepted")
	}
}
