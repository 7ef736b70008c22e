// Command compactsim regenerates the paper's evaluation figures from
// internal/experiments. Each table prints as aligned text; -csv DIR also
// writes every printed table to DIR/<name>.csv.
//
// Usage:
//
//	compactsim -fig 7            # Figures 7a and 7b (cost & time vs update %)
//	compactsim -fig 7a           # Figure 7a alone (7b: Figure 7b alone)
//	compactsim -fig 8            # Figure 8 (BT(I) vs lower bound)
//	compactsim -fig 9a -runs 3   # Figure 9a (SI cost vs time, update sweep)
//	compactsim -fig 9b           # Figure 9b (SI cost vs time, data sweep)
//	compactsim -fig optgap       # extension: heuristics vs exact optimum
//	compactsim -fig ablation     # ablations: merge fan-in k, HLL precision
//	compactsim -fig all          # everything
//	compactsim -dump FILE        # write one generated instance to FILE
//	compactsim -score FILE       # score an instance file with every strategy
//
// The CSV files and their columns, where a Stat column X is the two
// columns X_mean,X_std and other numbers are single columns:
//
//	fig7a.csv         update_pct, <strategy> (Stat, costactual) per strategy, sstables
//	fig7b.csv         update_pct, <strategy>_ms (Stat) per strategy, sstables
//	fig8.csv          distribution, memtable_keys, sstables, cost (Stat), lopt (Stat), cost_over_lopt
//	fig9a.csv         distribution, update_pct, cost (Stat), time_ms (Stat)
//	fig9b.csv         distribution, operation_count, cost (Stat), time_ms (Stat)
//	optgap.csv        strategy, mean_cost_over_opt, worst_cost_over_opt, mean_cost_over_lopt, trials
//	ablation_k.csv    strategy, k, cost (Stat), steps, time_ms, cost_over_lopt
//	ablation_hll.csv  estimator, cost (Stat), time_ms, cost_over_exact
//	score.csv         strategy, cost_simple, cost_actual
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
	"slices"
	"strings"

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

// figNames are the values of -fig.
const figNames = "7, 7a, 7b, 8, 9a, 9b, optgap, ablation, all"

// run parses args as compactsim's command line and prints the requested
// figures, score or dump report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compactsim", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: "+figNames)
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
	if !slices.Contains(strings.Split(figNames, ", "), *fig) {
		return fmt.Errorf("-fig must be one of %s, got %q", figNames, *fig)
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
		return scoreFile(stdout, *csvDir, *score, *k, *seed)
	}
	if *dump != "" {
		return dumpInstance(stdout, *dump, p)
	}

	one := func(t experiments.Table, err error) ([]experiments.Table, error) { return []experiments.Table{t}, err }
	figures := []struct {
		name   string
		tables func() ([]experiments.Table, error)
	}{
		{"7", func() ([]experiments.Table, error) { return experiments.Fig7(p) }},
		{"8", func() ([]experiments.Table, error) { return one(experiments.Fig8(p)) }},
		{"9a", func() ([]experiments.Table, error) { return one(experiments.Fig9a(p)) }},
		{"9b", func() ([]experiments.Table, error) { return one(experiments.Fig9b(p)) }},
		{"optgap", func() ([]experiments.Table, error) { return one(experiments.OptGap(p, *tables, *trials)) }},
		{"ablation", func() ([]experiments.Table, error) {
			ks, err := experiments.KSweep(p, 40, nil)
			if err != nil {
				return nil, err
			}
			hs, err := experiments.HLLSweep(p, 40, nil)
			return []experiments.Table{ks, hs}, err
		}},
	}
	// -fig 7a and 7b run Figure 7 and print the one table they name.
	for _, f := range figures {
		if *fig != "all" && !strings.HasPrefix(*fig, f.name) {
			continue
		}
		ts, err := f.tables()
		if err != nil {
			return err
		}
		for _, t := range ts {
			if *fig == "all" || *fig == f.name || t.Name == "fig"+*fig {
				if err := emit(stdout, *csvDir, t); err != nil {
					return err
				}
			}
		}
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

// scoreFile scores an instance file with experiments.Score.
func scoreFile(stdout io.Writer, csvDir, path string, k int, seed int64) error {
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
	t, err := experiments.Score(inst, k, seed)
	if err != nil {
		return err
	}
	return emit(stdout, csvDir, t)
}

// dumpInstance generates one phase-one instance from the workload
// parameters and writes it in the instance text format.
func dumpInstance(stdout io.Writer, path string, p experiments.Params) error {
	inst, err := experiments.GenerateTables(experiments.WorkloadConfig(p, 60, p.Seed), p.MemtableKeys)
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

// emit prints t and, when dir is set, writes it to dir/<t.Name>.csv.
func emit(stdout io.Writer, dir string, t experiments.Table) error {
	if err := t.WriteText(stdout); err != nil || dir == "" {
		return err
	}
	f, err := vfs.Default.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
