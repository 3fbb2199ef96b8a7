package obs

import (
	"cmp"
	"runtime"
	"runtime/debug"
	"sync"
)

// RegisterRuntimeMetrics publishes process identity and Go runtime health
// gauges on reg (nil for Default()):
//
//	build_info{daemon,go_version,revision} 1   who is running, built from what
//	go_goroutines{daemon}                      scheduler pressure
//	go_heap_alloc_bytes{daemon}                live heap
//	go_heap_objects{daemon}                    live objects
//	go_gc_cycles_total{daemon}                 completed GC cycles
//	go_gc_pause_seconds_total{daemon}          cumulative stop-the-world time
//
// build_info follows the Prometheus convention of a constant-1 gauge whose
// labels carry the values, so a fleet scrape answers "which revision is each
// daemon running" without a separate inventory. The runtime gauges refresh
// via a snapshot hook — values are read at scrape time, with no background
// ticker. Safe to call more than once per registry; later calls only update
// the daemon label set registered first.
func RegisterRuntimeMetrics(reg *Registry, daemon string) {
	reg = cmp.Or(reg, Default())
	goVersion, revision := buildIdentity()
	reg.Gauge("build_info",
		"daemon", daemon, "go_version", goVersion, "revision", revision).Set(1)

	goroutines := reg.Gauge("go_goroutines", "daemon", daemon)
	heapAlloc := reg.Gauge("go_heap_alloc_bytes", "daemon", daemon)
	heapObjects := reg.Gauge("go_heap_objects", "daemon", daemon)
	gcCycles := reg.Gauge("go_gc_cycles_total", "daemon", daemon)
	gcPause := reg.Gauge("go_gc_pause_seconds_total", "daemon", daemon)
	reg.OnSnapshot(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapObjects.Set(float64(ms.HeapObjects))
		gcCycles.Set(float64(ms.NumGC))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
	})
}

// buildIdentity returns the go toolchain version and (short) VCS revision the
// binary was built from, resolved once per process.
var buildIdentity = sync.OnceValues(func() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.GoVersion != "" {
			goVersion = info.GoVersion
		}
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				if len(s.Value) > 12 {
					revision = s.Value[:12]
				} else if s.Value != "" {
					revision = s.Value
				}
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && revision != "unknown" {
			revision += "-dirty"
		}
	}
	return goVersion, revision
})
