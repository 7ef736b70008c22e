// Command compactsim regenerates the paper's evaluation figures from
// internal/experiments. Each figure prints as an aligned text table; -csv
// additionally writes machine-readable data.
//
// Usage:
//
//	compactsim -fig 7            # Figures 7a and 7b (cost & time vs update %)
//	compactsim -fig 8            # Figure 8 (BT(I) vs lower bound)
//	compactsim -fig 9a -runs 3   # Figure 9a (SI cost vs time, update sweep)
//	compactsim -fig 9b           # Figure 9b (SI cost vs time, data sweep)
//	compactsim -fig optgap       # extension: heuristics vs exact optimum
//	compactsim -fig all          # everything
//
// The defaults reproduce the paper's Section 5.2 parameters (operationcount
// 100K, recordcount 1000, memtable 1000 keys, 3 runs, k=2, latest
// distribution).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/compaction"
	"repro/internal/experiments"
	"repro/internal/vfs"
	"repro/internal/ycsb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "compactsim:", err)
		os.Exit(1)
	}
}

// run parses args as compactsim's command line and prints the requested
// figures, score or dump report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compactsim", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 7, 7a, 7b, 8, 9a, 9b, optgap, ablation, all")
		ops     = fs.Int("ops", 100000, "YCSB operationcount")
		records = fs.Int("records", 1000, "YCSB recordcount")
		mem     = fs.Int("memtable", 1000, "memtable capacity in distinct keys")
		runs    = fs.Int("runs", 3, "independent runs to average")
		k       = fs.Int("k", 2, "sstables merged per iteration")
		workers = fs.Int("workers", 0, "merge parallelism for BT (0 = GOMAXPROCS)")
		dist    = fs.String("dist", "latest", "key distribution for figure 7: uniform, zipfian, latest")
		seed    = fs.Int64("seed", 1, "base random seed")
		csvDir  = fs.String("csv", "", "directory to also write CSV files into")
		tables  = fs.Int("optgap-tables", 10, "sstable count for the optimality-gap experiment")
		trials  = fs.Int("optgap-trials", 5, "trials for the optimality-gap experiment")
		score   = fs.String("score", "", "score an instance file (one table per line, keys or lo-hi ranges) with every strategy and exit")
		dump    = fs.String("dump", "", "generate one workload instance (using -ops/-records/-memtable/-dist) and write it to this file, then exit")
		strats  = fs.String("strategies", "", "comma-separated strategy subset for figure 7 (the model's strategy names, not the live engine's; empty = the paper's five)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Params treats a zero as "the paper's default"; on the command line
	// an out-of-range value is an error, never a silent substitution.
	if *k < 2 {
		return fmt.Errorf("-k must be at least 2, got %d", *k)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"runs", *runs}, {"ops", *ops}, {"records", *records}, {"memtable", *mem}, {"optgap-tables", *tables}, {"optgap-trials", *trials}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must not be negative, got %d", *workers)
	}

	d, err := ycsb.ParseDistribution(*dist)
	if err != nil {
		return err
	}
	strategies, err := parseStrategies(*strats)
	if err != nil {
		return err
	}
	p := experiments.Params{
		OperationCount: *ops,
		RecordCount:    *records,
		MemtableKeys:   *mem,
		Runs:           *runs,
		K:              *k,
		Workers:        *workers,
		Distribution:   d,
		Seed:           *seed,
		Strategies:     strategies,
	}
	if *csvDir != "" {
		if err := vfs.Default.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	if *score != "" {
		return scoreFile(stdout, *score, *k, *seed)
	}
	if *dump != "" {
		return dumpInstance(stdout, *dump, p)
	}

	want := func(names ...string) bool {
		for _, n := range names {
			if *fig == n {
				return true
			}
		}
		return *fig == "all"
	}
	ran := false

	if want("7", "7a", "7b") {
		ran = true
		rows, err := experiments.Fig7(p)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatFig7(rows))
		if err := writeCSV(*csvDir, "fig7.csv", func(f io.Writer) error {
			return experiments.WriteFig7CSV(f, rows)
		}); err != nil {
			return err
		}
	}
	if want("8") {
		ran = true
		rows, err := experiments.Fig8(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFig8(rows))
		if err := writeCSV(*csvDir, "fig8.csv", func(f io.Writer) error {
			return experiments.WriteFig8CSV(f, rows)
		}); err != nil {
			return err
		}
	}
	if want("9a") {
		ran = true
		rows, err := experiments.Fig9a(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFig9("Figure 9a: SI cost vs time, update percentage sweep", "update%", rows))
		if err := writeCSV(*csvDir, "fig9a.csv", func(f io.Writer) error {
			return experiments.WriteFig9CSV(f, "update_pct", rows)
		}); err != nil {
			return err
		}
	}
	if want("9b") {
		ran = true
		rows, err := experiments.Fig9b(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFig9("Figure 9b: SI cost vs time, operationcount sweep", "opcount", rows))
		if err := writeCSV(*csvDir, "fig9b.csv", func(f io.Writer) error {
			return experiments.WriteFig9CSV(f, "operation_count", rows)
		}); err != nil {
			return err
		}
	}
	if want("optgap") {
		ran = true
		rows, err := experiments.OptGap(p, *tables, *trials)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatOptGap(rows))
	}
	if want("ablation") {
		ran = true
		ks, err := experiments.KSweep(p, 40, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatKSweep(ks))
		hs, err := experiments.HLLSweep(p, 40, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatHLLSweep(hs))
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want 7, 7a, 7b, 8, 9a, 9b, optgap, ablation, all)", *fig)
	}
	return nil
}

// parseStrategies splits a comma-separated strategy list and validates
// every name through the model's resolver, compaction.NewChooserByName. An
// unknown name is its error, which names the accepted set, never a silent
// fallback to the defaults.
func parseStrategies(s string) ([]string, error) {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, err := compaction.NewChooserByName(name, 0); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

// scoreFile scores an instance file with every strategy (and the exact
// optimum when feasible), printing simple and actual costs.
func scoreFile(stdout io.Writer, path string, k int, seed int64) error {
	f, err := vfs.Default.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	// vfs.File reads at offsets, not sequentially; adapt it for the parser.
	inst, err := compaction.ParseInstance(io.NewSectionReader(f, 0, st.Size()))
	if err != nil {
		return err
	}
	scores, err := compaction.ScoreInstance(inst, k, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instance: %d tables, %d distinct keys, LOPT = %d\n\n",
		inst.N(), inst.Universe().Len(), inst.LowerBound())
	names := make([]string, 0, len(scores))
	for name := range scores {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return scores[names[i]][0] < scores[names[j]][0] })
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tcost (eq 2.1)\tcostactual")
	for _, name := range names {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", name, scores[name][0], scores[name][1])
	}
	return tw.Flush()
}

// dumpInstance generates one phase-one instance from the workload
// parameters and writes it in the instance text format.
func dumpInstance(stdout io.Writer, path string, p experiments.Params) error {
	cfg := ycsb.Config{
		RecordCount:      p.RecordCount,
		OperationCount:   p.OperationCount,
		UpdateProportion: 0.6,
		InsertProportion: 0.4,
		Distribution:     p.Distribution,
		Seed:             p.Seed,
	}
	inst, err := experiments.GenerateTables(cfg, p.MemtableKeys)
	if err != nil {
		return err
	}
	f, err := vfs.Default.Create(path)
	if err != nil {
		return err
	}
	if err := compaction.WriteInstance(f, inst); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d tables to %s\n", inst.N(), path)
	return nil
}

// writeCSV writes one CSV file into dir when dir is non-empty.
func writeCSV(dir, name string, fn func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := vfs.Default.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
