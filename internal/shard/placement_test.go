package shard

import (
	"slices"
	"testing"

	"stalecert/internal/core"
	"stalecert/internal/worldsim"
)

// TestQuickWorldPlacement: over the seed-1 quick world at 4 slices, the
// certificates each slice keeps add up to at most 1.01 times the log, and the
// largest slice holds at most 1.18 times the mean. A managed certificate is
// kept by its customers' slices only; were the provider marker a placement
// key, every one would also land on the marker's slice (1.027 and 1.218).
func TestQuickWorldPlacement(t *testing.T) {
	s, err := worldsim.ScenarioFor("quick")
	if err != nil {
		t.Fatal(err)
	}
	w := worldsim.NewWorld(s)
	w.Run()
	certs, _ := w.Logs.Dedup()
	const count = 4
	r := MustRing(count, DefaultVNodes)
	held := make([]int, count)
	total := 0
	for _, c := range certs {
		e2lds := core.CertE2LDs(w.PSL, c)
		for index := range held {
			if Keeps(r, index, e2lds, c.Fingerprint()) {
				held[index]++
				total++
			}
		}
	}
	dup := float64(total) / float64(len(certs))
	peak := float64(slices.Max(held)) / (float64(total) / count)
	t.Logf("%d certificates, slices hold %v: duplication %.3f, largest %.3f× the mean", len(certs), held, dup, peak)
	if dup > 1.01 || peak > 1.18 {
		t.Errorf("duplication %.3f (ceiling 1.01), largest slice %.3f× the mean (ceiling 1.18)", dup, peak)
	}
}
