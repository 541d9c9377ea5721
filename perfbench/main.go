// Command perfbench is the repository's pipeline benchmark: four
// closed-loop workloads with one client each, every input generated
// from the seed with internal/hiergen, every layer timed from outside
// around calls to its public functions.
//
//	bash perfbench/run.sh --workload devirt-stream --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) measures the end-to-end metrics; a traced
// run (--trace 1) records spans around each layer call and reports the
// per-layer metrics plus the tracing overhead. Either prints a report,
// then one JSON object as its last line. --workload all runs every
// workload in turn. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// sizes fixes every input size. The checked-in benchmark runs
// fullSizes; the tests run tinySizes.
type sizes struct {
	Classes     int // Giant hierarchy of compile-giant, devirt-stream and edit-serve
	MemberNames int
	Accesses    int // member accesses in the compile-giant translation unit
	Sites       int // devirt-stream call-site stream (wraps around)
	Batch       int // devirt-stream sites per ResolveBatch
	Reads       int // edit-serve Zipf reads per requery
	ConeReads   int // edit-serve cone (or new-row) reads per requery
	Edits       int // edit-script length (edit-serve, lint-session)
	LintClasses int // lint-session Giant hierarchy
	Setups      int // least set-ups per untraced run; setup_s is their median
	// SetupSeconds: an untraced run sets up again (up to maxSetups)
	// until its set-ups take this long, so a cheap set-up is sampled
	// more often.
	SetupSeconds float64
	Samples      int // answers checked per step
}

var fullSizes = sizes{
	Classes: 20_000, MemberNames: 512, Accesses: 20_000,
	Sites: 1 << 20, Batch: 1024,
	Reads: 192, ConeReads: 64, Edits: 4096,
	LintClasses: 1000, Setups: 3, SetupSeconds: 2, Samples: 2,
}

var tinySizes = sizes{
	Classes: 400, MemberNames: 32, Accesses: 300,
	Sites: 4096, Batch: 128,
	Reads: 16, ConeReads: 8, Edits: 256,
	LintClasses: 40, Setups: 2, Samples: 2,
}

// env is what a workload's set-up receives.
type env struct {
	sizes
	seed   int64
	outDir string  // scratch files: images, census records
	image  string  // the image the workload's prepare wrote, if any
	tr     *tracer // non-nil only for the traced set-up
}

// session is one set-up workload, ready to run steps.
type session interface {
	// step runs one closed-loop operation; it is the timed part.
	step(tr *tracer) error
	// check verifies the last step's answers (untimed) and returns
	// the number of failed checks.
	check() int
	// observe records the last step's layer counters (traced runs
	// only, untimed).
	observe(tr *tracer)
	// final runs the run-level checks, and in a traced run the final
	// probes, returning the number of failed checks.
	final(tr *tracer) (int, error)
	// inputs reports the sizes and measured properties of the input.
	inputs() map[string]float64
	// kind names the kind of the last step, and shares gives each
	// kind's share of the workload's input; a workload whose steps
	// are all of one kind returns "" and nil.
	kind() string
	shares() map[string]float64
	close() error
}

type workload struct {
	name string
	why  string
	// prepare, if set, builds once per run and untimed what every
	// set-up reads; the function it returns removes it.
	prepare func(e *env) (func() error, error)
	setup   func(e *env) (session, error)
	// named returns the workload's own end-to-end figures for the
	// report (compile_s, devirt_sites_per_s, edit_p50_ms, ...).
	named func(steps []time.Duration, e *env) []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
	omit  bool // too few samples: report the name and note, not the value
}

var workloads = []workload{compileGiant, devirtStream, editServe, lintSession}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	outDir   string
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: compile-giant, devirt-stream, edit-serve, lint-session, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench", "out"), "directory for scratch files, spans and the results log")
	flag.Parse()

	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	allCorrect := true
	for _, w := range ws {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes, outDir: *outDir}
		res, err := run(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// run sets the workload up, drives it for the configured time and
// returns the result line; the report goes to out.
func run(cfg config, out io.Writer) (result, error) {
	host := stampHost()
	e := &env{sizes: cfg.sizes, seed: cfg.seed, outDir: cfg.outDir}
	var tr *tracer
	setups := cfg.sizes.Setups
	if cfg.trace {
		tr = newTracer()
		e.tr = tr
		setups = 1
	}

	if cfg.workload.prepare != nil {
		cleanup, err := cfg.workload.prepare(e)
		if err != nil {
			return result{}, fmt.Errorf("prepare: %w", err)
		}
		defer cleanup()
	}
	var setupTimes []time.Duration
	var setupTotal time.Duration
	budget := time.Duration(cfg.sizes.SetupSeconds * float64(time.Second))
	var s session
	for i := 0; i < setups || (!cfg.trace && i < maxSetups && setupTotal < budget); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, err
			}
			s = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = cfg.workload.setup(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
		setupTotal += setupTimes[i]
	}
	defer s.close()
	liveHeap := liveHeapAfterGC()

	attempted, failed := 0, 0
	window := time.Duration(cfg.seconds * float64(time.Second))
	loop := func(tr *tracer, d time.Duration) (stepLog, error) {
		// The window counts step time only, so the untimed checks
		// between steps do not shorten the measured work. It is
		// extended until every kind of step has minPerKind samples.
		var log stepLog
		for len(log.d) == 0 || log.busy < d || (log.busy < maxExtension*d && !log.covers(s.shares())) {
			tr.beginStep()
			sp := tr.begin("step")
			t0 := time.Now()
			if err := s.step(tr); err != nil {
				return log, fmt.Errorf("step %d: %w", attempted, err)
			}
			log.add(time.Since(t0), s.kind())
			tr.end(sp)
			s.observe(tr)
			attempted++
			if s.check() > 0 {
				failed++
			}
		}
		return log, nil
	}

	var steps stepLog
	var agg *layerAgg
	var err error
	if !cfg.trace {
		if steps, err = loop(nil, window); err != nil {
			return result{}, err
		}
	} else {
		// Untraced then traced halves over the same set-up: their
		// difference is the tracing overhead.
		var untraced stepLog
		if untraced, err = loop(nil, window/2); err != nil {
			return result{}, err
		}
		if steps, err = loop(tr, window/2); err != nil {
			return result{}, err
		}
		agg = &layerAgg{
			steps:      len(steps.d),
			counts:     tr.counts,
			untracedMs: msOf(untraced.mean(s.shares())),
			tracedMs:   msOf(steps.mean(s.shares())),
		}
	}
	liveHeap = max(liveHeap, liveHeapAfterGC())
	tr.setStep(stepFinal)
	f, err := s.final(tr)
	if err != nil {
		return result{}, fmt.Errorf("final checks: %w", err)
	}
	attempted++
	if f > 0 {
		failed++
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	flat := map[string]float64{}
	spans := ""
	if !cfg.trace {
		vals := map[string]float64{
			"step_ms":       msOf(steps.mean(s.shares())),
			"setup_s":       median(setupTimes).Seconds(),
			"live_heap_mib": float64(liveHeap) / (1 << 20),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
			flat[m.Name] = vals[m.Name]
		}
	} else {
		agg.self, agg.setup, agg.final = tr.selfTimes()
		for _, m := range perLayer {
			v := m.value(agg)
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			flat[m.Name] = v
		}
		spans = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload.name, cfg.seed))
		if err := tr.writeFile(spans); err != nil {
			return result{}, err
		}
	}

	inputs := s.inputs()
	diffs, err := appendRecord(filepath.Join(cfg.outDir, "results.jsonl"), record{
		Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace,
		Host: host, Inputs: inputs, Metrics: flat, Correct: res.Correct,
	})
	if err != nil {
		return result{}, err
	}
	report(out, cfg, host, diffs, inputs, setupTimes, steps.d, res, e)
	if spans != "" {
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spans)
	}
	return res, nil
}

func report(out io.Writer, cfg config, host hostStamp, diffs []string, inputs map[string]float64,
	setupTimes, steps []time.Duration, res result, e *env) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench %s seed %d, %s, %.0f s window\n", cfg.workload.name, cfg.seed, mode, cfg.seconds)
	fmt.Fprintf(out, "host: gomaxprocs=%d num_cpu=%d cpu=%q go=%s commit=%s dirty=%s\n",
		host.GOMAXPROCS, host.NumCPU, host.CPUModel, host.GoVersion, host.Commit, host.Dirty)
	for _, d := range diffs {
		fmt.Fprintf(out, "WARNING: host stamp differs from the previous %s result (%s); do not compare the two\n", cfg.workload.name, d)
	}
	for _, k := range sortedKeys(inputs) {
		fmt.Fprintf(out, "input %s %g\n", k, inputs[k])
	}
	fmt.Fprintf(out, "steps: %d measured; set-ups: %d\n", len(steps), len(setupTimes))
	if !cfg.trace {
		for _, n := range cfg.workload.named(steps, e) {
			if n.omit {
				fmt.Fprintf(out, "metric %s not reported%s: fewer than ten samples beyond it\n", n.name, n.note)
				continue
			}
			fmt.Fprintf(out, "metric %s %.6g %s%s\n", n.name, n.value, n.unit, n.note)
		}
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "metric %s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "metric fail_ratio %g (%d operations failed a check / %d operations)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
}

// liveHeapAfterGC collects and returns the bytes the collection found
// live: the heap the workload's state holds, exactly, at an untimed
// point.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxSetups caps the set-ups of an untraced run.
const maxSetups = 9

// Step kinds: the window is extended (up to maxExtension times) until
// each kind has minPerKind samples.
const (
	minPerKind   = 6
	maxExtension = 4
)

// stepLog is the measured steps of one window.
type stepLog struct {
	d    []time.Duration
	kind []string
	busy time.Duration
}

func (l *stepLog) add(d time.Duration, kind string) {
	l.d = append(l.d, d)
	l.kind = append(l.kind, kind)
	l.busy += d
}

func (l *stepLog) byKind() map[string][]time.Duration {
	m := map[string][]time.Duration{}
	for i, k := range l.kind {
		m[k] = append(m[k], l.d[i])
	}
	return m
}

func (l *stepLog) covers(shares map[string]float64) bool {
	by := l.byKind()
	for k, w := range shares {
		if w > 0 && len(by[k]) < minPerKind {
			return false
		}
	}
	return true
}

// mean is the mean step time. With kind shares it is stratified: the
// per-kind means weighted by the kinds' shares of the input, so that a
// window's chance draw of cheap and costly steps does not move it.
func (l *stepLog) mean(shares map[string]float64) time.Duration {
	if shares == nil {
		return mean(l.d)
	}
	var sum, wsum float64
	for k, ds := range l.byKind() {
		if w := shares[k]; w > 0 {
			sum += w * float64(mean(ds))
			wsum += w
		}
	}
	if wsum == 0 {
		return mean(l.d)
	}
	return time.Duration(sum / wsum)
}

// latencyFigures names a workload's step latency percentiles. A
// percentile is reported only when at least ten samples lie beyond it;
// otherwise only its sample count is.
func latencyFigures(prefix string, steps []time.Duration) []namedValue {
	var out []namedValue
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}} {
		v, ok := percentile(steps, q.q)
		out = append(out, namedValue{name: prefix + "_" + q.name + "_ms", value: msOf(v), unit: "ms",
			note: fmt.Sprintf(" (n=%d)", len(steps)), omit: !ok})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
