package harness

// E20 measures the devirtualization query workload: draining a
// compiler-shaped stream of virtual call sites through CHA resolution
// against a warm served snapshot.
//
// Three strategies over the same Zipf call-site stream
// (hiergen.CallSites over a Giant hierarchy):
//
//   - single-call: the pre-batch client shape — per site, walk the
//     static type's descendant cone and issue one Snapshot.Lookup per
//     receiver, collecting distinct targets. Probed on a bounded site
//     prefix and normalized to ns/site (the point of the probe: at
//     Zipf-hot cones this is thousands of lookups per site).
//   - batched: devirt.Resolver.ResolveBatch serial on a fresh
//     resolver per pass — each site walks its cone only until the
//     walk reaches a descendant whose target set is cached, and a
//     pair already cached is answered without a walk.
//   - parallel-batched: the same with auto workers (work-stealing
//     over chunks of sites). On a single-core host this equals
//     batched; the recorded ratio is honest, not simulated.

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/devirt"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// DevirtConfig is one point of the devirt family, shared by E20,
// BenchmarkDevirt, cmd/benchjson -devirt-o, and the CI smoke.
type DevirtConfig struct {
	Name        string
	Classes     int
	MemberNames int
	Sites       int   // call-site stream length
	SingleProbe int   // bounded sites for the single-call strategy
	Seed        int64 // call-site stream seed
}

// Make builds the hierarchy: the scale family's Giant shape with the
// session-side 512-name universe.
func (c DevirtConfig) Make() *chg.Graph {
	cfg := hiergen.GiantDefaults(c.Classes)
	cfg.MemberNames = c.MemberNames
	return hiergen.Giant(cfg)
}

// MakeSites generates the config's call-site stream.
func (c DevirtConfig) MakeSites(g *chg.Graph) []devirt.Site {
	raw := hiergen.CallSites(g, c.Sites, c.Seed)
	sites := make([]devirt.Site, len(raw))
	for i, s := range raw {
		sites[i] = devirt.Site{Class: s.Class, Member: s.Member}
	}
	return sites
}

// DevirtConfigs returns the benchmark family: the E19 scale points
// with multi-million-site streams.
func DevirtConfigs() []DevirtConfig {
	return []DevirtConfig{
		{Name: "giant-20k", Classes: 20_000, MemberNames: 512, Sites: 2_000_000, SingleProbe: 20_000, Seed: 2026},
		{Name: "giant-100k", Classes: 100_000, MemberNames: 512, Sites: 4_000_000, SingleProbe: 10_000, Seed: 2026},
	}
}

// DevirtSmokeConfig returns the CI-sized configuration.
func DevirtSmokeConfig() DevirtConfig {
	return DevirtConfig{Name: "giant-20k-smoke", Classes: 20_000, MemberNames: 512, Sites: 200_000, SingleProbe: 5_000, Seed: 2026}
}

// DevirtStats summarizes a resolved stream per site (not per unique
// pair): Monomorphic + Polymorphic + Unresolved == Sites.
type DevirtStats struct {
	Sites       int
	UniqueSites int
	Monomorphic int // exactly one possible target
	Polymorphic int // two or more
	Unresolved  int // no legal target (undefined/ambiguous everywhere)
	CacheHits   int // answered from the target-set cache in one cold pass

	// CacheMismatches counts sites whose answer from a warm resolver
	// (one that already drained the stream) differs from the cold
	// pass's; any is a cache coherence bug.
	CacheMismatches int
}

// DevirtMeasurement is one strategy's timing.
type DevirtMeasurement struct {
	Strategy    string
	Sites       int // sites actually timed (the probe is bounded)
	Total       time.Duration
	NsPerSite   int64
	SitesPerSec float64
	Probed      bool
}

// DevirtSession holds one warm serving setup: hierarchy, snapshot
// and call-site stream. Every batched pass gets a fresh resolver, so
// each starts with a cold target-set cache.
type DevirtSession struct {
	Graph *chg.Graph
	Snap  *engine.Snapshot
	Sites []devirt.Site

	res, warm []devirt.Resolution // reusable result buffers

	// single-call scratch (cone walk + distinct-target set)
	visited *bitset.Set
	queue   []chg.ClassID
	targets map[chg.ClassID]struct{}
}

// NewDevirtSession builds the session and fills every lookup cell of
// the snapshot untimed, so every strategy measures the steady serving
// state (warm cells) rather than first-touch fill cost. Resolvers'
// caches are not warmed: that is the work the batched passes time.
func NewDevirtSession(cfg DevirtConfig) (*DevirtSession, error) {
	g := cfg.Make()
	snap := engine.NewSnapshot(g)
	snap.WarmAll()
	return &DevirtSession{
		Graph:   g,
		Snap:    snap,
		Sites:   cfg.MakeSites(g),
		visited: bitset.New(g.NumClasses()),
		targets: map[chg.ClassID]struct{}{},
	}, nil
}

// resolver returns a fresh dominance resolver over the session's
// snapshot: workers 1 is serial, 0 auto.
func (s *DevirtSession) resolver(workers int) *devirt.Resolver {
	r, err := devirt.New(s.Snap, core.SemDominance)
	if err != nil {
		panic(err) // the session's snapshot always serves dominance
	}
	r.Workers = workers
	return r
}

// Stats resolves the whole stream with a fresh serial resolver and
// tallies it, then drains the stream again through the now warm
// resolver and counts the sites whose answers differ.
func (s *DevirtSession) Stats() DevirtStats {
	r := s.resolver(1)
	s.res = r.ResolveBatch(s.Sites, s.res[:0])
	s.warm = r.ResolveBatch(s.Sites, s.warm[:0])
	st := DevirtStats{Sites: len(s.Sites)}
	seen := map[devirt.Site]struct{}{}
	for i, r := range s.res {
		seen[s.Sites[i]] = struct{}{}
		switch {
		case len(r.Targets) == 1:
			st.Monomorphic++
		case len(r.Targets) > 1:
			st.Polymorphic++
		default:
			st.Unresolved++
		}
		if r.FastPath {
			st.CacheHits++
		}
		if !slices.Equal(r.Targets, s.warm[i].Targets) {
			st.CacheMismatches++
		}
	}
	st.UniqueSites = len(seen)
	return st
}

// DrainSingle resolves the first n sites the pre-batch way: per site,
// walk the static type's descendant cone and issue one
// Snapshot.Lookup per receiver — nothing shared across sites. This is
// the client shape the batch API replaces. Returns a checksum so the
// work cannot be optimized away.
func (s *DevirtSession) DrainSingle(n int) int {
	if n > len(s.Sites) {
		n = len(s.Sites)
	}
	sum := 0
	for _, site := range s.Sites[:n] {
		cone := 1
		if r := s.Snap.Lookup(site.Class, site.Member); r.Found() {
			s.targets[r.Class()] = struct{}{}
		}
		s.queue = s.Graph.EachDescendant(site.Class, s.visited, s.queue, func(d chg.ClassID) {
			cone++
			if r := s.Snap.Lookup(d, site.Member); r.Found() {
				s.targets[r.Class()] = struct{}{}
			}
		})
		sum += len(s.targets) + cone
		for t := range s.targets {
			delete(s.targets, t)
		}
	}
	return sum
}

// DrainBatched resolves the full stream through ResolveBatch on a
// fresh resolver, serial or with auto workers.
func (s *DevirtSession) DrainBatched(parallel bool) int {
	workers := 1
	if parallel {
		workers = 0
	}
	s.res = s.resolver(workers).ResolveBatch(s.Sites, s.res[:0])
	sum := 0
	for i := range s.res {
		sum += len(s.res[i].Targets)
	}
	return sum
}

// timeDevirt runs fn repeatedly until minDur of wall time has
// accrued, returning the per-run mean.
func timeDevirt(minDur time.Duration, fn func()) (time.Duration, int) {
	start := time.Now()
	runs := 0
	for {
		fn()
		runs++
		if d := time.Since(start); d >= minDur {
			return d / time.Duration(runs), runs
		}
	}
}

// MeasureDevirt times every strategy of one config on a shared warm
// session, returning the measurements (single-call, batched,
// parallel-batched) and the stream's resolution stats.
func MeasureDevirt(cfg DevirtConfig) ([]DevirtMeasurement, DevirtStats, error) {
	s, err := NewDevirtSession(cfg)
	if err != nil {
		return nil, DevirtStats{}, err
	}
	stats := s.Stats()

	const minDur = 300 * time.Millisecond
	probe := cfg.SingleProbe
	if probe > len(s.Sites) {
		probe = len(s.Sites)
	}
	per, _ := timeDevirt(minDur, func() { s.DrainSingle(probe) })
	out := []DevirtMeasurement{{
		Strategy:    "single-call",
		Sites:       probe,
		Total:       per,
		NsPerSite:   per.Nanoseconds() / int64(probe),
		SitesPerSec: float64(probe) / per.Seconds(),
		Probed:      probe < len(s.Sites),
	}}
	for _, strat := range []struct {
		name     string
		parallel bool
	}{{"batched", false}, {"parallel-batched", true}} {
		per, _ := timeDevirt(minDur, func() { s.DrainBatched(strat.parallel) })
		out = append(out, DevirtMeasurement{
			Strategy:    strat.name,
			Sites:       len(s.Sites),
			Total:       per,
			NsPerSite:   per.Nanoseconds() / int64(len(s.Sites)),
			SitesPerSec: float64(len(s.Sites)) / per.Seconds(),
		})
	}
	return out, stats, nil
}

// RunE20 prints the devirtualization workload comparison on a bounded
// 20k-class stream; the full family including the 100k point is
// recorded in BENCH_devirt.json by `make bench-json`.
func RunE20(w io.Writer) error {
	fmt.Fprintln(w, "Devirtualization workload: CHA target resolution for a Zipf stream of")
	fmt.Fprintln(w, "virtual call sites over a Giant hierarchy, served from one warm")
	fmt.Fprintln(w, "snapshot. single-call walks each site's descendant cone with")
	fmt.Fprintln(w, "one Lookup per receiver (probed, normalized); batched drains the")
	fmt.Fprintln(w, "stream through a fresh resolver whose target-set cache answers")
	fmt.Fprintln(w, "repeated costly pairs outright and stops cone walks at cached")
	fmt.Fprintln(w, "descendants; parallel-batched adds work-stealing")
	fmt.Fprintf(w, "workers (GOMAXPROCS here: %d).\n", runtime.GOMAXPROCS(0))
	fmt.Fprintln(w)

	cfg := DevirtConfig{Name: "giant-20k", Classes: 20_000, MemberNames: 512,
		Sites: 500_000, SingleProbe: 10_000, Seed: 2026}
	ms, stats, err := MeasureDevirt(cfg)
	if err != nil {
		return err
	}

	t := newTable("strategy", "sites", "ns/site", "sites/sec", "vs single-call")
	var baseNs int64
	for _, m := range ms {
		if m.Strategy == "single-call" {
			baseNs = m.NsPerSite
		}
	}
	for _, m := range ms {
		sites := fmt.Sprint(m.Sites)
		if m.Probed {
			sites += " (probe)"
		}
		rel := "1.0x"
		if m.NsPerSite > 0 && m.Strategy != "single-call" {
			rel = fmt.Sprintf("%.1fx", float64(baseNs)/float64(m.NsPerSite))
		}
		t.add(m.Strategy, sites, m.NsPerSite, fmt.Sprintf("%.2fM", m.SitesPerSec/1e6), rel)
	}
	t.write(w)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "stream: %d sites, %d unique (type, member) pairs\n", stats.Sites, stats.UniqueSites)
	fmt.Fprintf(w, "  monomorphic %d (%.1f%%)  polymorphic %d  unresolved %d  cache-hit %d\n",
		stats.Monomorphic, 100*float64(stats.Monomorphic)/float64(stats.Sites),
		stats.Polymorphic, stats.Unresolved, stats.CacheHits)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "→ the cache wins twice: a hot pair repeated across the stream walks its")
	fmt.Fprintln(w, "  cone once, and a walk over a big cone stops at every descendant whose")
	fmt.Fprintln(w, "  set is already cached, so it reads few of the cone's lookup cells.")
	fmt.Fprintln(w, "  The monomorphic fraction is the devirtualization payoff: those calls")
	fmt.Fprintln(w, "  can become direct calls.")
	return nil
}
