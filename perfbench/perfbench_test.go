package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/devirt"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
)

// setUp prepares and sets w up at tiny sizes; the test's cleanup
// removes what the preparation wrote.
func setUp(t *testing.T, w workload, seed int64) session {
	t.Helper()
	e := &env{sizes: tinySizes, seed: seed, outDir: t.TempDir()}
	if w.prepare != nil {
		cleanup, err := w.prepare(e)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cleanup() })
	}
	s, err := w.setup(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() })
	return s
}

// Every workload, traced and untraced, emits every declared metric
// with its unit, passes its own checks, and prints its named figures.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{workload: w, seed: 7, seconds: 0.05, trace: traced, sizes: tinySizes, outDir: t.TempDir()}
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var want []metricSpec
			if traced {
				for _, m := range perLayer {
					want = append(want, m.metricSpec)
				}
			} else {
				want = endToEnd
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if !traced {
				for _, n := range w.named(nil, &env{sizes: tinySizes}) {
					if !strings.Contains(out.String(), "metric "+n.name+" ") {
						t.Errorf("%s: report lacks %s:\n%s", w.name, n.name, out.String())
					}
				}
			}
			if !strings.Contains(out.String(), "metric fail_ratio 0 ") {
				t.Errorf("%s: report lacks fail_ratio 0:\n%s", w.name, out.String())
			}
		}
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var layers []metricSpec
	for _, m := range perLayer {
		layers = append(layers, m.metricSpec)
	}
	if got, want := mustJSON(t, b.EndToEnd), mustJSON(t, endToEnd); got != want {
		t.Errorf("end_to_end:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, b.PerLayer), mustJSON(t, layers); got != want {
		t.Errorf("per_layer:\n got %s\nwant %s", got, want)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// generatedInputs serializes everything a workload's set-up generates
// from the seed.
func generatedInputs(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	var v any
	switch s := setUp(t, w, seed).(type) {
	case *compileSession:
		v = s.src
	case *devirtSession:
		v = s.sites
	case *editSession:
		v = []any{s.ops, s.reads}
	case *lintSess:
		v = s.ops
	}
	return []byte(mustJSON(t, v))
}

func TestOneSeedYieldsIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := generatedInputs(t, w, 3), generatedInputs(t, w, 3)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 3 generated different inputs twice", w.name)
		}
		if c := generatedInputs(t, w, 4); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", w.name)
		}
	}
}

// A wrong answer planted where each check looks makes it fire.
func TestPlantedWrongAnswersFire(t *testing.T) {
	t.Run("compile-giant", func(t *testing.T) {
		s := setUp(t, compileGiant, 1).(*compileSession)
		if err := s.step(nil); err != nil {
			t.Fatal(err)
		}
		if n := s.check(); n != 0 {
			t.Fatalf("clean step: %d failed checks", n)
		}
		// Give a found resolution another resolution's (different) answer.
		rs := s.unit.Resolutions
		for i := range rs {
			if j := findDifferent(rs, i); rs[i].Result.Found() && j >= 0 {
				rs[i].Result = rs[j].Result
				break
			}
		}
		if s.check() == 0 {
			t.Error("a wrong sema resolution passed the image check")
		}
	})

	t.Run("devirt-stream", func(t *testing.T) {
		s := setUp(t, devirtStream, 1).(*devirtSession)
		for len(s.drained) < s.censusLen() {
			if err := s.step(nil); err != nil {
				t.Fatal(err)
			}
			if n := s.check(); n != 0 {
				t.Fatalf("clean batch: %d failed checks", n)
			}
		}
		r := s.out[0]
		r.Targets = append(append([]chg.ClassID(nil), r.Targets...), chg.ClassID(s.snap.Graph().NumClasses()-1))
		if s.targetMismatch(s.batch[0], r) == 0 {
			t.Error("an extra target passed the brute-force check")
		}
		f, err := s.final(nil)
		if err != nil || f != 0 {
			t.Fatalf("clean census: %d failed, %v", f, err)
		}
		s.drained = append([]devirt.Resolution(nil), s.drained...)
		s.drained[0].Targets = nil
		if f, _ := s.final(nil); f != 1 {
			t.Errorf("a changed drained answer: %d failed checks, want 1", f)
		}
		path := filepath.Join(t.TempDir(), "census.json")
		c := s.fresh
		if ok, err := sameAsRecorded(path, c); !ok || err != nil {
			t.Fatalf("recording a census: %v %v", ok, err)
		}
		c.Monomorphic++
		if ok, _ := sameAsRecorded(path, c); ok {
			t.Error("a changed census matched the recorded one")
		}
	})

	t.Run("edit-serve", func(t *testing.T) {
		s := setUp(t, editServe, 1).(*editSession)
		for i := 0; i < 3; i++ {
			if err := s.step(nil); err != nil {
				t.Fatal(err)
			}
			if n := s.check(); n != 0 {
				t.Fatalf("clean step: %d failed checks", n)
			}
		}
		g := s.snap.Graph()
		q := s.qs[0]
		wrong := core.New(g).Lookup(q.Class, q.Member)
		for m := 0; m < g.NumMemberNames() && wrong.Equal(s.out[0]); m++ {
			wrong = core.New(g).Lookup(q.Class, chg.MemberID(m))
		}
		s.out[0] = wrong
		s.rng = rand.New(rand.NewSource(0))
		bad := 0
		for k := 0; k < 200 && bad == 0; k++ {
			bad = s.check()
		}
		if bad == 0 {
			t.Error("a wrong requery answer passed the oracle check")
		}
		if n := carriedMismatches(s.snap, s.touched, rand.New(rand.NewSource(1))); n != 0 {
			t.Fatalf("clean final: %d mismatches", n)
		}
		planted := plantWrongCell(t, s.snap, q)
		if carriedMismatches(planted, []engine.Query{q}, rand.New(rand.NewSource(1))) == 0 {
			t.Error("a wrong carried cell passed the cold-snapshot check")
		}
	})

	t.Run("lint-session", func(t *testing.T) {
		s := setUp(t, lintSession, 1).(*lintSess)
		for k := 0; ; k++ {
			if err := s.step(nil); err != nil {
				t.Fatal(err)
			}
			if k > 50 || len(s.delta.Added)+len(s.delta.Fixed) > 0 {
				break
			}
			s.check()
		}
		if len(s.delta.Added)+len(s.delta.Fixed) == 0 {
			t.Fatal("no edit changed the findings")
		}
		prev := s.prev
		if n := s.check(); n != 0 {
			t.Fatalf("clean delta: %d failed checks", n)
		}
		s.prev = append(prev, diag.Diagnostic{Rule: "planted", Message: "x"})
		if s.check() == 0 {
			t.Error("a delta that misses a finding passed the delta check")
		}
		if f, err := s.final(nil); err != nil || f != 0 {
			t.Fatalf("clean final: %d failed, %v", f, err)
		}
		d := s.sess.Diagnostics()
		if findingsDiffer(d[1:], d) == 0 {
			t.Error("a session missing a finding passed the cold re-lint check")
		}
	})
}

// findDifferent returns a resolution whose answer differs from rs[i]'s.
func findDifferent(rs []sema.Resolution, i int) int {
	for j := range rs {
		if !rs[j].Result.Equal(rs[i].Result) {
			return j
		}
	}
	return -1
}

// plantWrongCell returns a copy of snap whose cell for q holds the
// answer of another cell that resolves differently.
func plantWrongCell(t *testing.T, snap *engine.Snapshot, q engine.Query) *engine.Snapshot {
	t.Helper()
	g := snap.Graph()
	want := snap.Lookup(q.Class, q.Member)
	cols := snap.CopyColumns()
	n := g.NumMemberNames()
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < n; m++ {
			if r := snap.Lookup(chg.ClassID(c), chg.MemberID(m)); !r.Equal(want) {
				cols[0].Cells[int(q.Class)*n+int(q.Member)] = uint64(r.Cell())
				planted, err := engine.NewSnapshotFromParts(g, snap.Pool(), cols,
					snap.Kernel().TrackPaths(), snap.Kernel().StaticRule())
				if err != nil {
					t.Fatal(err)
				}
				return planted
			}
		}
	}
	t.Fatal("every cell resolves alike")
	return nil
}
