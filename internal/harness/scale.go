package harness

// E19 measures the 100k-class scale jump: whole-table construction
// and bulk-edit serving sessions on hiergen.Giant hierarchies.
//
// Build side: the streaming builder (core.BuildTableStreamed) against
// the monolithic batched build. Both produce cell-for-cell identical
// tables; the axis is transient memory — the batched build
// materializes 2·|N|·|M|/8 bytes of membership matrices (quadratic
// when |M| tracks |N|), the streamed build holds a fixed
// budget-bounded working set, so its peak-heap bytes per class stay
// flat from 20k to 100k classes.
//
// Session side: 10k member edits against a warm served hierarchy.
// bulk-carry applies a batch of edits and republishes once — the
// workspace's edit log collapses the batch into one per-member
// invalidation cone (bitset.UnionInto / one multi-source BFS) and one
// carried snapshot. serial-carry republishes after every edit — the
// pre-batching serving loop, measured on a bounded probe and
// normalized to ns/edit (10k full republishes of a 100k-class
// snapshot would take hours, which is the point).

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// ScaleConfig is one class-count point of the scale family, shared by
// experiment E19, cmd/benchjson -scale-o, and the CI smoke. The build
// hierarchy lets |M| track |N| (the paper's table regime); the session
// hierarchy keeps a modest member universe, because a served snapshot
// holds a dense |N|·|M| cell array and an edit session republishes
// many of them.
type ScaleConfig struct {
	Name    string
	Classes int

	// Session parameters: total member edits, edits per bulk batch,
	// and the bounded edit count the serial strategy is probed with.
	Edits       int
	Batch       int
	SerialProbe int

	// BatchedBuild gates the monolithic-build baseline; the CI smoke
	// turns it off (the quadratic matrices are the thing the smoke's
	// memory ceiling excludes).
	BatchedBuild bool
}

// MakeBuild returns the build-side hierarchy: Giant with |M| = |N|.
func (c ScaleConfig) MakeBuild() *chg.Graph {
	return hiergen.Giant(hiergen.GiantDefaults(c.Classes))
}

// MakeSession returns the session-side hierarchy: same class structure,
// 512 member names.
func (c ScaleConfig) MakeSession() *chg.Graph {
	cfg := hiergen.GiantDefaults(c.Classes)
	cfg.MemberNames = 512
	return hiergen.Giant(cfg)
}

// ScaleConfigs returns the scale family: 20k, 50k, and 100k classes,
// each with a 10k-edit session.
func ScaleConfigs() []ScaleConfig {
	return []ScaleConfig{
		{Name: "giant-20k", Classes: 20_000, Edits: 10_000, Batch: 500, SerialProbe: 60, BatchedBuild: true},
		{Name: "giant-50k", Classes: 50_000, Edits: 10_000, Batch: 500, SerialProbe: 40, BatchedBuild: true},
		{Name: "giant-100k", Classes: 100_000, Edits: 10_000, Batch: 500, SerialProbe: 30, BatchedBuild: true},
	}
}

// ScaleSmokeConfig returns the bounded CI configuration: a 20k-class
// streaming build and a 100-edit bulk-carry session, small enough for
// a CI worker but large enough to cross chg.DenseClosureLimit, so
// the sparse-closure path runs on every push.
func ScaleSmokeConfig() ScaleConfig {
	return ScaleConfig{Name: "giant-20k-smoke", Classes: 20_000, Edits: 100, Batch: 20, SerialProbe: 0}
}

// heapSampler watches HeapAlloc from a background goroutine — the
// peak-heap axis of the scale family. ReadMemStats stops the world,
// so the interval is a compromise: 15ms catches the transient
// matrices of even a short build phase while costing the build well
// under a percent.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(15 * time.Millisecond)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak {
				s.peak = ms.HeapAlloc
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak HeapAlloc observed
// (including one final read, so short phases are never missed).
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	return s.peak
}

// ScaleBuildResult is one build strategy's measurement.
type ScaleBuildResult struct {
	Strategy      string
	Duration      time.Duration
	Entries       int
	PeakHeapBytes uint64  // peak HeapAlloc above the pre-build baseline
	BytesPerClass float64 // PeakHeapBytes / classes — the flatness axis
	Stream        core.StreamStats
}

// measureBuild runs one whole-table build under the heap sampler.
func measureBuild(g *chg.Graph, strategy string) ScaleBuildResult {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	sampler := startHeapSampler()
	start := time.Now()
	var tab *core.Table
	var st core.StreamStats
	switch strategy {
	case "streamed-build":
		tab, st = core.NewKernel(g).BuildTableStreamed(core.StreamOptions{})
	case "batched-build":
		tab = core.NewKernel(g).BuildTableBatched(1)
		st.Entries = tab.Entries()
	default:
		panic("unknown scale build strategy " + strategy)
	}
	dur := time.Since(start)
	peak := sampler.Stop()
	runtime.KeepAlive(tab)
	if peak < base {
		peak = base
	}
	return ScaleBuildResult{
		Strategy:      strategy,
		Duration:      dur,
		Entries:       st.Entries,
		PeakHeapBytes: peak - base,
		BytesPerClass: float64(peak-base) / float64(g.NumClasses()),
		Stream:        st,
	}
}

// MeasureScaleBuilds measures every build strategy the config enables.
func MeasureScaleBuilds(cfg ScaleConfig) []ScaleBuildResult {
	g := cfg.MakeBuild()
	out := []ScaleBuildResult{measureBuild(g, "streamed-build")}
	if cfg.BatchedBuild {
		out = append(out, measureBuild(g, "batched-build"))
	}
	return out
}

// ScaleSessionResult is one edit-session strategy's measurement.
type ScaleSessionResult struct {
	Strategy      string
	Edits         int // edits actually applied (the serial probe is bounded)
	Republishes   int
	Total         time.Duration
	NsPerEdit     int64
	Carried       int // last republish's carry stats
	Invalidated   int
	PeakHeapBytes uint64
	Probed        bool // bounded probe, ns/edit normalized
}

// scaleSession binds a fresh workspace replay of g to an engine and
// warms a fixed slice of the served snapshot (the first 8 member
// columns across every class), so every republish has cells to carry.
func scaleSession(g *chg.Graph) (*incremental.Workspace, *engine.WorkspaceBinding, *engine.Snapshot, error) {
	w, err := incremental.FromGraph(g)
	if err != nil {
		return nil, nil, nil, err
	}
	e := engine.New()
	b, snap, err := e.BindWorkspace("scale", w)
	if err != nil {
		return nil, nil, nil, err
	}
	warmM := 8
	if m := g.NumMemberNames(); m < warmM {
		warmM = m
	}
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < warmM; m++ {
			snap.Lookup(chg.ClassID(c), chg.MemberID(m))
		}
	}
	return w, b, snap, nil
}

// scaleEdit applies one deterministic member toggle: a random class, a
// random hot member name (low Zipf ids, so cones are real hierarchies,
// not empty slivers).
func scaleEdit(rng *rand.Rand, w *incremental.Workspace, classes int) {
	c := chg.ClassID(rng.Intn(classes))
	name := fmt.Sprintf("m%d", rng.Intn(64))
	if w.DeclaresName(c, name) {
		if err := w.RemoveMember(c, name); err != nil {
			panic(err)
		}
	} else if err := w.AddMember(c, chg.Member{Name: name, Kind: chg.Method}); err != nil {
		panic(err)
	}
}

// scaleProbeServe requeries a bounded deterministic sample of the served
// snapshot after a republish — the "serve" half of a session step,
// scaled down from E15's full-table requery (a full requery of a
// 100k-class snapshot would dwarf the republish being measured).
func scaleProbeServe(snap *engine.Snapshot) {
	g := snap.Graph()
	n := g.NumClasses()
	stride := n / 512
	if stride < 1 {
		stride = 1
	}
	for c := 0; c < n; c += stride {
		for m := 0; m < 4; m++ {
			snap.Lookup(chg.ClassID(c), chg.MemberID(m))
		}
	}
}

// measureSession runs one edit-session strategy: `batch` edits per
// republish (1 = serial), at most maxEdits edits.
func measureSession(g *chg.Graph, strategy string, maxEdits, batch int) (ScaleSessionResult, error) {
	w, b, snap, err := scaleSession(g)
	if err != nil {
		return ScaleSessionResult{}, err
	}
	rng := rand.New(rand.NewSource(461))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	sampler := startHeapSampler()
	start := time.Now()
	applied, republishes := 0, 0
	for applied < maxEdits {
		k := batch
		if k > maxEdits-applied {
			k = maxEdits - applied
		}
		for i := 0; i < k; i++ {
			scaleEdit(rng, w, g.NumClasses())
		}
		applied += k
		snap, err = b.Sync()
		if err != nil {
			return ScaleSessionResult{}, err
		}
		republishes++
		scaleProbeServe(snap)
	}
	total := time.Since(start)
	peak := sampler.Stop()
	if peak < base {
		peak = base
	}
	st := snap.Carry()
	return ScaleSessionResult{
		Strategy:      strategy,
		Edits:         applied,
		Republishes:   republishes,
		Total:         total,
		NsPerEdit:     total.Nanoseconds() / int64(applied),
		Carried:       st.Carried,
		Invalidated:   st.Invalidated,
		PeakHeapBytes: peak - base,
		Probed:        batch == 1,
	}, nil
}

// MeasureScaleSessions measures the bulk-carry session and, when the
// config asks for one, the bounded serial-carry probe.
func MeasureScaleSessions(cfg ScaleConfig) ([]ScaleSessionResult, error) {
	g := cfg.MakeSession()
	bulk, err := measureSession(g, "bulk-carry", cfg.Edits, cfg.Batch)
	if err != nil {
		return nil, err
	}
	out := []ScaleSessionResult{bulk}
	if cfg.SerialProbe > 0 {
		serial, err := measureSession(g, "serial-carry", cfg.SerialProbe, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, serial)
	}
	return out, nil
}

// RunE19 prints the scale comparison for the two smaller family
// points; the full family including the 100k row is regenerated into
// BENCH_scale.json by `make bench-json` (cmd/benchjson -scale-o).
func RunE19(w io.Writer) error {
	fmt.Fprintln(w, "Scale jump: hiergen.Giant hierarchies (fat interface layer, diamond")
	fmt.Fprintln(w, "towers, override chains, power-law members). Build side: streaming")
	fmt.Fprintln(w, "budget-bounded construction vs the monolithic batched build — same")
	fmt.Fprintln(w, "table, transient memory is the axis. Session side: 10k member edits")
	fmt.Fprintln(w, "served warm; bulk-carry republishes once per batch of edits (one")
	fmt.Fprintln(w, "union-of-cones carried snapshot), serial-carry once per edit (probed,")
	fmt.Fprintln(w, "normalized to ns/edit).")
	fmt.Fprintln(w)

	bt := newTable("hierarchy", "strategy", "|N|", "entries", "build", "peak heap", "bytes/class", "chunks")
	st := newTable("hierarchy", "strategy", "edits", "republishes", "ns/edit", "carried", "invalidated", "speedup")
	for _, cfg := range ScaleConfigs()[:2] {
		for _, r := range MeasureScaleBuilds(cfg) {
			chunks := "-"
			if r.Stream.Chunks > 0 {
				chunks = fmt.Sprintf("%d×%d blocks", r.Stream.Chunks, r.Stream.ChunkBlocks)
			}
			entries := r.Entries
			bt.add(cfg.Name, r.Strategy, cfg.Classes, entries, r.Duration,
				formatBytes(r.PeakHeapBytes), fmt.Sprintf("%.0fB", r.BytesPerClass), chunks)
		}
		sessions, err := MeasureScaleSessions(cfg)
		if err != nil {
			return err
		}
		var bulkNs int64
		for _, r := range sessions {
			if r.Strategy == "bulk-carry" {
				bulkNs = r.NsPerEdit
			}
		}
		for _, r := range sessions {
			speedup := "-"
			if r.Strategy == "serial-carry" && bulkNs > 0 {
				speedup = fmt.Sprintf("bulk %.1fx faster", float64(r.NsPerEdit)/float64(bulkNs))
			}
			edits := fmt.Sprint(r.Edits)
			if r.Probed {
				edits += " (probe)"
			}
			st.add(cfg.Name, r.Strategy, edits, r.Republishes,
				fmt.Sprintf("%.2fms", float64(r.NsPerEdit)/1e6), r.Carried, r.Invalidated, speedup)
		}
	}
	fmt.Fprintln(w, "whole-table build:")
	bt.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "10k-edit serving session (512-name universe; serial probed and normalized):")
	st.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "→ the streamed build's peak transient heap per class stays flat as |N| grows")
	fmt.Fprintln(w, "  while the batched build's grows with |N| (its membership matrices are")
	fmt.Fprintln(w, "  |N|·|M| bits, |M| tracking |N|). The bulk session's win is structural:")
	fmt.Fprintln(w, "  one carried republish per batch instead of per edit, with the batch's")
	fmt.Fprintln(w, "  cones collapsed per member by bitset union / multi-source BFS. The 100k")
	fmt.Fprintln(w, "  row of this family is recorded in BENCH_scale.json (make bench-json).")
	return nil
}
