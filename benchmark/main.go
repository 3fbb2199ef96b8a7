// Command benchmark measures the stalecert fleet end to end and layer by
// layer. It builds the daemons from the checkout it runs in, spawns them as
// subprocesses on loopback ports, drives them over HTTP with two closed-loop
// clients, verifies their answers against an in-process oracle, and prints
// every metric by name with its unit. BENCHMARK.json at the repository root
// declares the command, the workloads and the metrics; README.md in this
// directory says what each means.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload <name|all> --seed <n> [--trace 0|1] [--out benchmark/results] [--smoke]
//	bash benchmark/run.sh compare <a> <b>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "refserver" {
		os.Exit(refServerMain(os.Args[2:]))
	}
	os.Exit(runMain())
}

func runMain() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed for the corpus, the zone file and the request keys")
	seconds := flag.Int("seconds", runSeconds, "the run length, which is fixed: the driver passes BENCHMARK.json's run_seconds, and any other value is refused")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	out := flag.String("out", filepath.Join("benchmark", "results"), "directory for result and trace files")
	smoke := flag.Bool("smoke", false, "harness self-test: every workload for 2 s, with the verification sweep")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name|all> --seed <n> [--trace 0|1] [--out dir] [--smoke]")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "--seconds %d: the run length is fixed at %d s (run_seconds in BENCHMARK.json), so that two commits are never measured over different lengths\n", *seconds, runSeconds)
		return 2
	}
	var todo []*workload
	if *name == "all" || *smoke {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	// The smoke test is one 2 s round: split three ways, its windows would
	// end before the hot set is cached, and the hit-ratio checks would fail.
	d, rounds := runSeconds*time.Second, roundsPerRun
	if *smoke {
		d, rounds = 2*time.Second, 1
	}

	// Children are killed by PID on SIGINT and SIGTERM, and the run's context
	// is cancelled so that whatever is in flight returns.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		stopAllFleets()
	}()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "staleapid")); err != nil {
		fmt.Fprintln(os.Stderr, "run from the repository root: ./cmd/staleapid not found")
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	env := &environ{BinDir: filepath.Join(build, "bin"),
		RunDir: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())), OutDir: *out}
	defer os.RemoveAll(env.RunDir)
	if err := buildDaemons(ctx, root, env.BinDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	var reports []*report
	status := 0
	for _, w := range todo {
		modes := []bool{false}
		if *trace == 1 {
			modes = []bool{true}
			if len(todo) > 1 {
				modes = []bool{false, true} // "all": both, end-to-end first
			}
		}
		for _, traced := range modes {
			var rep *report
			if traced {
				rep, err = runTraced(ctx, env, w, *seed, d)
			} else {
				rep, err = runUntraced(ctx, env, w, *seed, d, rounds)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
				return 1
			}
			rep.print(os.Stdout)
			path, err := rep.write(env.OutDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
			if !rep.Correct {
				status = 1
			}
			reports = append(reports, rep)
		}
	}
	line, err := lastLine(reports)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(line)
	return status
}

// lastLine is the machine-readable summary that ends standard output. For a
// single workload it is the driver's contract: the declared metrics of the
// mode that ran. For several it sums the counts and prefixes each metric
// with its workload.
func lastLine(reports []*report) (string, error) {
	if len(reports) == 0 {
		return "", errors.New("nothing ran")
	}
	if len(reports) == 1 {
		declared := endToEnd
		if reports[0].Traced {
			declared = perLayer
		}
		return reports[0].contractLine(declared)
	}
	all := newReport("all", reports[0].Seed, 0, false)
	for _, r := range reports {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, m := range r.Metrics {
			all.Metrics[r.Workload+"/"+n] = m
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{all.Correct, all.Attempted, all.Failed, all.Metrics})
	return string(raw), err
}
