// Command perfbench is the repository's benchmark: it drives the real
// btpub packages in-process through one of two seeded workloads, query
// and live, checks their outputs, and prints one JSON result line. See
// README.md for the workloads and the metric dictionary, and run.sh for
// how it is built and invoked:
//
//	bash perfbench/run.sh --workload query --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"btpub/internal/geoip"
)

// A run times its set-up in two rounds, one before the timed phase and
// one after it, and reports the median as setup_s, so that one slow
// moment of the host does not decide the figure. Each round sets up at
// least setupRounds times and until setupBudget is spent.
const (
	setupRounds = 4
	setupBudget = 2 * time.Second
)

// workDir is where runs keep their lakes and traces, and manifestFile
// lists the metrics a run prints; both are relative to the checkout root
// the benchmark runs from.
const (
	workDir      = ".bench_build"
	manifestFile = "BENCHMARK.json"
)

// manifest is the part of manifestFile a run checks its result against.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest() (*manifest, error) {
	buf, err := os.ReadFile(manifestFile)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestFile, err)
	}
	return &m, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its arguments, what it measured and whether
// the outputs were right.
type bench struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string
	db       *geoip.DB

	attempted, failed int64
	correct           bool
	metrics           map[string]metric
	meta              map[string]any
	setups            []float64 // set-up times (s) so far
	manifest          *manifest
}

var workloads = map[string]func(*bench) error{
	"query": runQuery,
	"live":  runLive,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "query or live")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 40, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want query or live)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		ctx: context.Background(), workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dir: dir, correct: true, metrics: map[string]metric{}, manifest: man,
	}
	b.meta = runMeta(b)
	steal0, total0 := cpuStat()
	// lakeserve logs one line per snapshot refresh; the benchmark reports
	// failures through its own checks instead.
	log.SetOutput(io.Discard)
	err = fn(b)
	log.SetOutput(os.Stderr)
	if err != nil {
		return err
	}
	if steal1, total1 := cpuStat(); total1 > total0 {
		b.meta["steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	return b.report(os.Stdout)
}

// report prints the run metadata, then the result as the last line.
func (b *bench) report(w io.Writer) error {
	if err := b.matchManifest(); err != nil {
		return err
	}
	for name, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	meta, err := json.Marshal(map[string]any{"meta": b.meta})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(meta))
	if b.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(result{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// matchManifest makes the printed metrics exactly the manifest's list
// for this kind of run, each in the manifest's unit. Every workload
// measures every end-to-end metric. A traced run reports a layer its
// workload never calls as 0, as the spans it did not record would give;
// those metrics are named in the metadata as idle.
func (b *bench) matchManifest() error {
	want := b.manifest.EndToEnd
	if b.trace {
		want = b.manifest.PerLayer
	}
	listed := map[string]bool{}
	var idle []string
	for _, mm := range want {
		listed[mm.Name] = true
		m, ok := b.metrics[mm.Name]
		switch {
		case !ok && b.trace:
			b.metrics[mm.Name] = metric{Value: 0, Unit: mm.Unit}
			idle = append(idle, mm.Name)
		case !ok:
			return fmt.Errorf("end-to-end metric %s was not measured", mm.Name)
		case m.Unit != mm.Unit:
			return fmt.Errorf("metric %s is in %s, the manifest says %s", mm.Name, m.Unit, mm.Unit)
		}
	}
	for name := range b.metrics {
		if !listed[name] {
			return fmt.Errorf("metric %s is not in %s", name, manifestFile)
		}
	}
	if len(idle) > 0 {
		b.meta["idle_layer_metrics"] = idle
	}
	return nil
}

// metric records one reported metric. With --trace 0 only end-to-end
// metrics are printed and with --trace 1 only per-layer ones; the other
// kind is kept as run metadata so a traced run still shows what its
// untraced phase measured.
func (b *bench) metric(name string, v float64, unit string) {
	if perLayer(name) == b.trace {
		b.metrics[name] = metric{Value: v, Unit: unit}
		return
	}
	b.meta[name] = metric{Value: v, Unit: unit}
}

// perLayer reports whether a metric name is per-layer: those are named
// layer.quantity, end-to-end ones have no dot.
func perLayer(name string) bool { return strings.Contains(name, ".") }

// wrong records n failed ops whose outputs were wrong; the run is
// incorrect.
func (b *bench) wrong(n int64, what string, problems ...string) {
	b.failed += n
	b.correct = false
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, p)
	}
}

// exactCounts reports the counts of two traced passes that must repeat
// exactly at one seed, failing the run unless they do.
func (b *bench) exactCounts(first, second map[string]metric) {
	var bad []string
	for k, m := range first {
		if second[k] != m {
			bad = append(bad, fmt.Sprintf("%s = %v then %v", k, m.Value, second[k].Value))
		}
		b.metric(k, m.Value, m.Unit)
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		b.wrong(1, "exact counts differ between traced passes", bad...)
	}
}

// timeSetups is one round of set-ups: it calls setup at least
// setupRounds times and until setupBudget has passed, timing each call,
// closes every result but the last and returns the last. Each call gets
// a number no other set-up of the run has had.
func timeSetups[T any](b *bench, setup func(n int) (T, error), closeFn func(T)) (T, error) {
	var last T
	start := time.Now()
	for i := 0; i < setupRounds || time.Since(start) < setupBudget; i++ {
		if i > 0 {
			closeFn(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup(len(b.setups))
		if err != nil {
			var none T
			return none, err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		last = v
	}
	return last, nil
}

// tmpDir names a fresh directory under the run's work dir.
func (b *bench) tmpDir(name string) string { return filepath.Join(b.dir, name) }

// writeTrace keeps the run's spans next to its other outputs.
func (b *bench) writeTrace(tr *Tracer) {
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		return
	}
	b.meta["trace_file"] = path
}

// retainedMB is the live heap after a forced collection, with state
// (the workload's system under test) still referenced. It collects
// twice: the first collection only moves sync.Pool contents to a victim
// cache, and whether free pooled buffers survived into the figure
// varied from run to run by 25 MB on query.
func retainedMB(state any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(state)
	return float64(m.HeapAlloc) / 1e6
}

// runMeta records what a run needs to be told apart from one made under
// different conditions.
func runMeta(b *bench) map[string]any {
	meta := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				meta["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		meta["loadavg"] = strings.Join(strings.Fields(string(buf))[:3], " ")
	}
	return meta
}

// cpuStat reads the machine's stolen and total CPU time (in clock
// ticks) from /proc/stat; the stolen share over a run is the time the
// hypervisor gave this machine's CPUs to others. Zeros when unknown.
func cpuStat() (steal, total uint64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		n, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal, then guest
		// times that user and nice already include.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
