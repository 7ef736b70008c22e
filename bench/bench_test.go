package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/kv"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness's own
// tables (workloads, metric names, units, directions, bounds) identical.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n harness %+v", m.PerLayer, perLayer)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

// driverLine parses the last line of a run's standard output, as the
// benchmark driver does.
func driverLine(t *testing.T, out string) (correct bool, attempted, failed int64, metrics map[string]float64) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	metrics = map[string]float64{}
	for name, v := range line.Metrics {
		metrics[name] = v.Value
	}
	return line.Correct, line.Attempted, line.Failed, metrics
}

// TestSmoke runs every workload at 1/1000 scale, timed and traced, through
// the same entry point as the driver, and checks that the metric names are
// exactly BENCHMARK.json's and that every operation passed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	dir := t.TempDir()
	for _, w := range m.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			err := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "20", "--trace", trace, "-scale", "0.001", "-dir", dir}, &out)
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, trace, err, out.String())
			}
			correct, attempted, failed, got := driverLine(t, out.String())
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, correct, attempted, failed)
			}
			want := m.EndToEnd
			if trace == "1" {
				want = m.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(got), len(want))
			}
			for _, d := range want {
				if _, ok := got[d.Name]; !ok {
					t.Errorf("%s trace=%s: metric %s missing from the result line", w.Name, trace, d.Name)
				}
			}
			if trace == "0" {
				if got["ok_ops_frac"] != 1 {
					t.Errorf("%s: ok_ops_frac = %v, want 1", w.Name, got["ok_ops_frac"])
				}
				for _, d := range want {
					if d.Name == "read_bytes_per_op" {
						continue // 0 only here: at 1/1000 scale every block stays cached
					}
					if got[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, got[d.Name])
					}
				}
			}
		}
	}
}

// corrupting flips one byte of every tenth value a Get returns.
type corrupting struct {
	kv.Engine
	gets, corrupted atomic.Int64
}

func (c *corrupting) Get(ctx context.Context, key []byte) ([]byte, error) {
	v, err := c.Engine.Get(ctx, key)
	if err == nil && c.gets.Add(1)%10 == 0 {
		v = append([]byte(nil), v...)
		v[len(v)-1] ^= 1
		c.corrupted.Add(1)
	}
	return v, err
}

// TestCorruptedValueIsAFailedOp checks the output check itself: a value
// that is not what the harness wrote must count as a failed operation.
func TestCorruptedValueIsAFailedOp(t *testing.T) {
	w, _ := workloadByName("update_heavy")
	var c *corrupting
	cfg := runConfig{seed: 3, seconds: 20, scale: 0.001, dir: t.TempDir(), auto: livePolicy, log: io.Discard,
		wrapClient: func(e kv.Engine) kv.Engine {
			c = &corrupting{Engine: e}
			return c
		}}
	res, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if c.corrupted.Load() == 0 {
		t.Fatal("no value was corrupted")
	}
	if res.Failed != c.corrupted.Load() {
		t.Errorf("failed = %d, want the %d corrupted gets", res.Failed, c.corrupted.Load())
	}
	if res.Correct || res.Metrics["ok_ops_frac"] >= 1 {
		t.Errorf("correct = %v, ok_ops_frac = %v after corrupting values", res.Correct, res.Metrics["ok_ops_frac"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for ns := 1; ns <= 100_000; ns++ {
		h.record(time.Duration(ns))
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100 // microseconds: the samples are uniform on 1..100000 ns
		if got := h.quantileUs(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile %v = %v us, want %v within 2%%", q, got, want)
		}
	}
	if !h.supports(0.999) || h.supports(0.99999) {
		t.Errorf("100000 samples must support p99.9 (100 beyond) and not p99.999 (1 beyond)")
	}
}
