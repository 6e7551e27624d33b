// Command perfbench is the repository's benchmark. It drives the
// linkreversal library through its public API in one process, one
// closed-loop client at a time, and prints every metric by name and unit.
// Each workload checks every op it runs; a wrong answer counts as failed.
//
//	bash perfbench/run.sh --workload route-100k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a separate
// traced run, and a Chrome trace-event file is written under -out. See
// README.md in this directory for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 20, "length of the timed phase in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = fs.String("out", ".bench_build", "directory for the trace file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	// Two procs match the 2-vCPU machines the bounds were set on; the
	// GOMAXPROCS environment variable still overrides it.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	}

	cfg := runConfig{name: *name, seed: *seed, seconds: *seconds, traced: *traced == 1}
	rep, err := measure(cfg, newW)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	prov := provenance(cfg, rep)
	if cfg.traced {
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := rep.tr.writeChrome(path, prov); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		prov["trace_file"] = path
	}
	for _, e := range rep.errs {
		fmt.Fprintf(stdout, "wrong: %s\n", e)
	}
	pb, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pb)
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics(cfg.traced),
	}
	printTable(stdout, res.Metrics)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-22s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// provenance records what a result was measured on and with.
func provenance(cfg runConfig, rep *report) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit, digest := sourceID(".")
	rawCPU, _ := rep.cpu.perOp()
	return map[string]any{
		"workload":      cfg.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.traced,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"shards":        runtime.GOMAXPROCS(0), // Shards 0 = GOMAXPROCS, as lrd -engine sharded
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"gogc":          gogc,
		"commit":        commit,
		"source_sha256": digest,
		"setup_reps":    len(rep.setupS),
		"warmup_ops":    rep.warmup,
		"timed_ops":     len(rep.opNs),
		"tail":          rep.tail.Label(),
		"tail_beyond":   rep.tail.Beyond,
		"tail_segments": rep.tail.Segments,
		"op_samples":    rep.tail.N,
		"traced_ops":    len(rep.tracedNs),
		"probe_ops":     rep.probes,
		"fail_ratio":    rep.failRatio(),
		"setup_s_each":  rep.setupS,
		"peak_rss_kb":   rep.peakRSSKB,
		"timed_seconds": rep.timed.Seconds(),
		// Raw figures, before scaling to reference speed (speed.go).
		"ref_nominal_us": float64(refNominal.Microseconds()),
		"ref_us":         float64(medianDur(append(rep.ref, rep.setupRef...)).Nanoseconds()) / 1e3,
		"raw_setup_s":    medianFloat(rep.setupS),
		"raw_op_p50_us":  float64(median(rep.opNs)) / 1e3,
		"raw_op_tail_us": float64(segmentTail(rep.opNs, rep.tail.Permille).Value) / 1e3,
		"raw_op_cpu_us":  rawCPU,
	}
}
