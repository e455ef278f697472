// Command fragbench is fragmd's end-to-end and per-layer benchmark. One
// process runs one workload for one seed:
//
//	fragbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It drives the shipped production path (assembly microkernel, GEMM
// autotuner, GOMAXPROCS = engine workers = nproc) through the module's
// public packages, checks the physics outputs against the committed
// goldens or an in-process serial reference, and prints as its last
// line one JSON object {correct, attempted, failed, metrics}. Untraced
// runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) time calls into each layer from outside and report the
// per-layer metrics. README.md lists the workloads and what each
// metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/fragmd/fragmd/internal/autotune"
	"github.com/fragmd/fragmd/internal/linalg"
)

// config is what every workload receives: the generated-input seed, the
// measurement length, the worker width and the tracer (nil when
// untraced).
type config struct {
	seed    int64
	seconds time.Duration
	workers int
	outDir  string // build/output directory inside the checkout
	tr      *tracer
}

// outcome is what a workload hands back. named holds the end-to-end
// metrics under their workload-specific names (md_steps_per_s, …);
// the generic setup_s / ops_per_s / op_p50_ms triple is what the
// benchmark contract compares across workloads.
type outcome struct {
	attempted, failed int
	checks            []check
	setupS            float64
	opsPerS           float64
	opP50ms           float64
	named             []namedMetric
	notes             []string
	layers            map[string]float64
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

type check struct {
	Name string  `json:"name"`
	Dev  float64 `json:"max_abs_dev"`
	Tol  float64 `json:"tol"`
	OK   bool    `json:"ok"`
}

// checkClose records |got − want| ≤ tol.
func (o *outcome) checkClose(name string, got, want, tol float64) {
	d := got - want
	if d < 0 {
		d = -d
	}
	for i := range o.checks {
		if o.checks[i].Name == name {
			c := &o.checks[i]
			if d > c.Dev {
				c.Dev = d
			}
			c.OK = c.OK && d <= tol
			return
		}
	}
	o.checks = append(o.checks, check{Name: name, Dev: d, Tol: tol, OK: d <= tol})
}

// checkTrue records a pass/fail check without a deviation.
func (o *outcome) checkTrue(name string, ok bool) {
	for i := range o.checks {
		if o.checks[i].Name == name {
			o.checks[i].OK = o.checks[i].OK && ok
			return
		}
	}
	o.checks = append(o.checks, check{Name: name, OK: ok})
}

// maxEnergyDev is the largest deviation over the energy checks (Ha).
func (o *outcome) maxEnergyDev() float64 {
	var m float64
	for _, c := range o.checks {
		if c.Dev > m && filepath.Ext(c.Name) == ".ha" {
			m = c.Dev
		}
	}
	return m
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*config) (*outcome, error){
	"rimp2-quickstart": runQuickstart,
	"rimp2-urea-cold":  runUreaCold,
	"lj-waterbox":      runWaterBox,
	"serve-closed":     runServeClosed,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fragbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for trace and result records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", *name, names)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}

	// The production configuration: every core for the runtime and the
	// engine, the asm microkernel and the autotuner on.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	linalg.SetAsmEnabled(true)
	autotune.Default.Enabled = true

	cfg := &config{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workers: nproc, outDir: *out}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	o, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}

	correct := len(o.checks) > 0
	for _, c := range o.checks {
		correct = correct && c.OK
	}
	if !correct {
		o.failed++ // a failed correctness check counts as a failed operation
		o.attempted++
	}
	metrics := map[string]metric{}
	if cfg.tr == nil {
		vals := map[string]float64{"setup_s": o.setupS, "ops_per_s": o.opsPerS, "op_p50_ms": o.opP50ms}
		for _, m := range endToEnd {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		o.layers["check.max_abs_dE_ha"] = o.maxEnergyDev()
		for _, lm := range layerMetrics() {
			metrics[lm.name] = metric{o.layers[lm.name], lm.unit}
		}
	}
	h := hostRecord()
	rec := map[string]interface{}{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": h, "checks": o.checks, "metrics": metrics, "notes": o.notes,
		"attempted": o.attempted, "failed": o.failed,
	}
	named := map[string]metric{}
	for _, m := range o.named {
		named[m.name] = metric{m.value, m.unit}
	}
	named["failed_frac"] = metric{float64(o.failed) / float64(max(o.attempted, 1)), "1"}
	rec["end_to_end"] = named

	// Human-readable report first; the contract's JSON line last.
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\nhost %s\n", *name, *seed, *trace, hb)
	for _, m := range o.named {
		fmt.Fprintf(stdout, "  %-22s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "  %-22s %14.6g (%d of %d)\n", "failed_frac",
		named["failed_frac"].Value, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, c := range o.checks {
		fmt.Fprintf(stdout, "  check %-34s ok=%-5v |dev|=%.3g tol=%.3g\n", c.Name, c.OK, c.Dev, c.Tol)
	}
	if err := writeRecords(cfg, *name, rec); err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// hostRecord is the provenance written into every result.
func hostRecord() map[string]interface{} {
	shapes, unlocked := tunerState()
	return map[string]interface{}{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu_features": linalg.CPUFeatures(), "microkernel": linalg.MicroKernelName(),
		"asm_enabled": linalg.AsmEnabled(), "tuner_enabled": autotune.Default.Enabled,
		"tuner_shapes": shapes, "tuner_unlocked": unlocked,
	}
}

// writeRecords writes the full result record and, for traced runs, the
// span log — once, at the end of the run.
func writeRecords(cfg *config, name string, rec map[string]interface{}) error {
	base := fmt.Sprintf("%s-seed%d", name, cfg.seed)
	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	suffix := "-untraced.json"
	if cfg.tr != nil {
		suffix = "-traced.json"
		if err := cfg.tr.writeFile(filepath.Join(cfg.outDir, "traces", base+".jsonl")); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, base+suffix), append(blob, '\n'), 0o644)
}
