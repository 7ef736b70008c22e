// Command bench is the repository's benchmark: four fixed-op-count YCSB
// workloads driven through the public kv.Engine of the embedded, remote and
// cluster backends, in one process, closed loop. See README.md.
//
//	go run . -workload update_heavy -seed 1 -seconds 20            one timed run
//	go run . -workload read_cold -seed 1 -seconds 20 -trace 1      one traced run (per-layer metrics)
//	go run . -repeat 5 -out out/new.json                           all workloads, interleaved
//	go run . -compare out/old.json out/new.json                    deltas against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lsm"
	"repro/internal/vfs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds      = fs.Float64("seconds", 20, "run length: each workload executes its frozen ops-per-second x this")
		trace        = fs.Int("trace", 0, "1 makes the traced per-layer run instead of the timed one")
		repeat       = fs.Int("repeat", 1, "repetitions, interleaved across workloads (A B C D A B C D); seed+i for the i-th")
		compare      = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		dir          = fs.String("dir", "out", "directory for scratch databases and output files")
		out          = fs.String("out", "", "result file (default <dir>/result-<workload>[-trace].json)")
		auto         = fs.String("auto", livePolicy, "live compaction picker; anything but the default is exploratory, never gated")
		scale        = fs.Float64("scale", 1, "shrink records and ops (smoke tests only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *scale <= 0 || *repeat < 1 {
		return fmt.Errorf("-seconds, -scale and -repeat must be positive")
	}
	if _, err := lsm.PolicyByName(*auto, fanIn, 1); err != nil {
		return err
	}
	selected := workloads
	if *workloadName != "all" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workload{w}
	}
	pinProcs()
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, dir: *dir, auto: *auto, trace: *trace != 0, log: stdout}
	if err := vfs.Default.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	report := newReport(cfg, *repeat)
	ctx := context.Background()
	var last *result
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runWorkload(ctx, c, w)
			if err != nil {
				return err
			}
			report.add(res)
			last = res
		}
	}
	report.print(stdout)
	path := *out
	if path == "" {
		name := "result-" + *workloadName
		if cfg.trace {
			name += "-trace"
		}
		path = filepath.Join(cfg.dir, name+".json")
	}
	if err := report.write(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\nresults written to %s\n", sandboxCaveat, path)
	if len(selected) == 1 && *repeat == 1 {
		// The benchmark driver reads the last line of standard output.
		return writeDriverLine(stdout, last)
	}
	return nil
}

// writeDriverLine prints the one-line JSON result the benchmark driver
// reads: every end-to-end metric after a timed run, every per-layer metric
// after a traced one (0 for a layer that is not on the workload's path).
func writeDriverLine(w io.Writer, res *result) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// summary is one metric over the repetitions of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// quartiles matches Python's statistics.quantiles(values, n=4), which is
// what the benchmark driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

type workloadReport struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// report is the schema of every result file: the env stamp and, per
// workload, each metric's values over the repetitions with their median
// and quartiles.
type report struct {
	Env       envStamp                   `json:"env"`
	Repeat    int                        `json:"repeat"`
	Traced    bool                       `json:"traced"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func newReport(cfg runConfig, repeat int) *report {
	return &report{Env: newEnvStamp(cfg), Repeat: repeat, Traced: cfg.trace, Workloads: map[string]*workloadReport{}}
}

// defs lists the metrics a run of this kind reports, in print order.
func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), timings...)
}

func (r *report) add(res *result) {
	wr := r.Workloads[res.Workload]
	if wr == nil {
		wr = &workloadReport{Correct: true, Metrics: map[string]summary{}}
		r.Workloads[res.Workload] = wr
	}
	wr.Correct = wr.Correct && res.Correct
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	for _, d := range r.defs() {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue // the layer is not on this workload's path
		}
		s := wr.Metrics[d.Name]
		s.Unit = d.Unit
		s.Values = append(s.Values, v)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		wr.Metrics[d.Name] = s
	}
}

func (r *report) print(w io.Writer) {
	for _, wl := range workloads {
		wr := r.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  correct=%v attempted=%d failed=%d\n", wl.name, wr.Correct, wr.Attempted, wr.Failed)
		for _, d := range r.defs() {
			s, ok := wr.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-42s %16.4f %-6s", d.Name, s.Median, d.Unit)
			if len(s.Values) > 1 {
				fmt.Fprintf(w, "  q1=%.4f q3=%.4f spread=%.2f%%", s.Q1, s.Q3, 100*s.spread())
			}
			fmt.Fprintln(w)
		}
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	f, err := vfs.Default.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	data, err := vfs.Default.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and metric of a timed run, how far the
// new median is from the old one against the metric's bound. A pair whose
// quartile spread on either side exceeds the bound is unresolved: the runs
// cannot tell a change that size from noise.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldR, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := readReport(newPath)
	if err != nil {
		return err
	}
	if oldR.Traced || newR.Traced {
		return fmt.Errorf("-compare takes timed (untraced) result files; per-layer metrics have no bounds")
	}
	fmt.Fprintf(w, "old: %s  git %s  %s  repeat %d\nnew: %s  git %s  %s  repeat %d\n",
		oldPath, oldR.Env.GitSHA, oldR.Env.CPUModel, oldR.Repeat, newPath, newR.Env.GitSHA, newR.Env.CPUModel, newR.Repeat)
	for _, note := range []struct{ name, a, b string }{
		{"cpu model", oldR.Env.CPUModel, newR.Env.CPUModel},
		{"seed", fmt.Sprint(oldR.Env.Seed), fmt.Sprint(newR.Env.Seed)},
		{"op counts", fmt.Sprint(oldR.Env.OpCounts), fmt.Sprint(newR.Env.OpCounts)},
		{"live picker override", oldR.Env.AutoPolicy, newR.Env.AutoPolicy},
	} {
		if note.a != note.b {
			fmt.Fprintf(w, "WARNING: %s differs (%s vs %s): the two sides are not comparable\n", note.name, note.a, note.b)
		}
	}
	var regressions []string
	for _, wl := range workloads {
		o, n := oldR.Workloads[wl.name], newR.Workloads[wl.name]
		if o == nil || n == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-20s %14s %14s %9s %7s %8s %8s  %s\n", wl.name, "metric", "old", "new", "worse by", "bound", "spread.o", "spread.n", "verdict")
		for _, d := range oldR.defs() {
			so, sn := o.Metrics[d.Name], n.Metrics[d.Name]
			worse := ratio(sn.Median-so.Median, math.Abs(so.Median)) // positive = worse
			if d.Better == higher {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case so.spread() > d.Bound || sn.spread() > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions = append(regressions, wl.name+"/"+d.Name)
			case -worse > d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "  %-20s %14.4f %14.4f %+8.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				d.Name, so.Median, sn.Median, 100*worse, 100*d.Bound, 100*so.spread(), 100*sn.spread(), verdict)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regressions: %s", strings.Join(regressions, ", "))
	}
	return nil
}
