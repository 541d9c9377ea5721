package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/devirt"
	"cpplookup/internal/engine"
	"cpplookup/internal/harness"
	"cpplookup/internal/image"
)

// devirtStream drains a compiler-shaped call-site stream through CHA
// resolution against a warm snapshot served from a mapped image.
var devirtStream = workload{
	name:    "devirt-stream",
	why:     "1024-site ResolveBatch batches of a Zipf call-site stream over a warm mmapped 20k-class Giant image: time is almost all devirt, every engine cell a hit",
	prepare: prepareDevirt,
	setup:   setupDevirt,
	named: func(steps []time.Duration, e *env) []namedValue {
		var busy time.Duration
		for _, d := range steps {
			busy += d
		}
		out := []namedValue{{name: "devirt_sites_per_s", value: float64(len(steps)*e.Batch) / busy.Seconds(), unit: "1/s",
			note: fmt.Sprintf(" (n=%d batches of %d sites)", len(steps), e.Batch)}}
		return append(out, latencyFigures("devirt_batch", steps)...)
	},
}

// censusBatches is how many leading batches of the stream the census
// covers; every run of a seed drains at least these.
const censusBatches = 16

// census tallies the CHA answers of a stream prefix, per site. It holds
// answers only, not how the resolver reached them (a fast path, say),
// so a resolver that answers alike by another route keeps the census.
type census struct {
	Sites, Unique                        int
	Monomorphic, Polymorphic, Unresolved int
	Digest                               uint64 // FNV-1a over every site's target list
}

func takeCensus(sites []devirt.Site, res []devirt.Resolution) census {
	c := census{Sites: len(sites)}
	seen := make(map[devirt.Site]bool, len(sites))
	h := fnv.New64a()
	var buf [4]byte
	for i, r := range res {
		if !seen[sites[i]] {
			seen[sites[i]] = true
			c.Unique++
		}
		switch {
		case len(r.Targets) == 1:
			c.Monomorphic++
		case len(r.Targets) > 1:
			c.Polymorphic++
		default:
			c.Unresolved++
		}
		for _, t := range r.Targets {
			buf[0], buf[1], buf[2], buf[3] = byte(t), byte(t>>8), byte(t>>16), byte(t>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	c.Digest = h.Sum64()
	return c
}

type devirtSession struct {
	e     *env
	im    *image.Image
	snap  *engine.Snapshot
	r     *devirt.Resolver
	sites []devirt.Site

	pos   int // stream position of the last batch
	batch []devirt.Site
	out   []devirt.Resolution

	drained []devirt.Resolution // the timed drain's answers over the census prefix
	fresh   census              // the final check's census, for inputs

	rng     *rand.Rand
	visited *bitset.Set
	queue   []chg.ClassID
	qs      []engine.Query
	lres    []core.Result
}

// prepareDevirt writes the warm image every set-up of the run maps:
// the hierarchy with every cell filled, saved once per run and kept out
// of the set-up time (compile-giant times warming and writing).
func prepareDevirt(e *env) (func() error, error) {
	cfg := harness.DevirtConfig{Classes: e.Classes, MemberNames: e.MemberNames}
	warm := engine.NewSnapshot(cfg.Make())
	warm.WarmAll()
	e.image = filepath.Join(e.outDir, fmt.Sprintf("devirt-seed%d.img", e.seed))
	if err := image.WriteFile(e.image, warm); err != nil {
		return nil, err
	}
	return func() error { return os.Remove(e.image) }, nil
}

// setupDevirt serves the prepared image: it generates the hierarchy and
// the call-site stream and maps the image.
func setupDevirt(e *env) (session, error) {
	tr := e.tr
	cfg := harness.DevirtConfig{Classes: e.Classes, MemberNames: e.MemberNames, Sites: e.Sites, Seed: e.seed}
	sp := tr.begin("hiergen.giant")
	g := cfg.Make()
	tr.end(sp)
	sp = tr.begin("image.open")
	im, err := image.OpenFile(e.image)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("devirt.new")
	r, err := devirt.New(im.Snapshot(), core.SemDominance)
	tr.end(sp)
	if err != nil {
		im.Close()
		return nil, err
	}
	sp = tr.begin("hiergen.call_sites")
	sites := cfg.MakeSites(g)
	tr.end(sp)
	return &devirtSession{
		e: e, im: im, snap: im.Snapshot(), r: r, sites: sites, pos: -e.Batch,
		rng:     rand.New(rand.NewSource(e.seed)),
		visited: bitset.New(g.NumClasses()),
	}, nil
}

func (s *devirtSession) censusLen() int { return min(censusBatches*s.e.Batch, len(s.sites)) }

func (s *devirtSession) step(tr *tracer) error {
	s.pos += s.e.Batch
	if s.pos+s.e.Batch > len(s.sites) {
		s.pos = 0
	}
	s.batch = s.sites[s.pos : s.pos+s.e.Batch]
	sp := tr.begin("devirt.resolve_batch")
	s.out = s.r.ResolveBatch(s.batch, s.out[:0])
	tr.end(sp)
	return nil
}

// observe records the batch's shape and times a plain LookupBatch of
// the same sites, the floor a devirt batch can approach.
func (s *devirtSession) observe(tr *tracer) {
	if tr == nil {
		return
	}
	first := make(map[devirt.Site]bool, len(s.batch))
	for i, site := range s.batch {
		r := s.out[i]
		if len(r.Targets) == 1 {
			tr.add("devirt.monomorphic", 1)
		}
		if first[site] {
			continue
		}
		first[site] = true
		tr.add("devirt.unique", 1)
		tr.add("devirt.cone", float64(r.Cone))
		if r.FastPath {
			tr.add("devirt.fast_path", 1)
		}
	}
	tr.add("devirt.sites", float64(len(s.batch)))
	s.qs = s.qs[:0]
	for _, site := range s.batch {
		s.qs = append(s.qs, engine.Query{Class: site.Class, Member: site.Member})
	}
	sp := tr.begin("engine.lookup_batch")
	s.lres = s.snap.LookupBatch(s.qs, s.lres[:0])
	tr.end(sp)
}

// check compares sampled sites of the batch with a brute-force cone
// walk, and keeps the answers that fall in the census prefix.
func (s *devirtSession) check() int {
	if s.pos < s.censusLen() && len(s.drained) == s.pos {
		s.drained = append(s.drained, s.out...)
	}
	bad := 0
	for k := 0; k < s.e.Samples; k++ {
		i := s.rng.Intn(len(s.batch))
		bad += s.targetMismatch(s.batch[i], s.out[i])
	}
	return bad
}

// targetMismatch reports (as 0 or 1) whether r differs from the target
// set of a brute-force walk: look m up in the root and every
// descendant, keep the distinct declaring classes of the found ones.
func (s *devirtSession) targetMismatch(site devirt.Site, r devirt.Resolution) int {
	g := s.snap.Graph()
	set := map[chg.ClassID]bool{}
	visit := func(c chg.ClassID) {
		if lr := s.snap.Lookup(c, site.Member); lr.Found() {
			set[lr.Class()] = true
		}
	}
	visit(site.Class)
	s.queue = g.EachDescendant(site.Class, s.visited, s.queue, visit)
	ok := len(set) == len(r.Targets)
	for _, t := range r.Targets {
		ok = ok && set[t]
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "check: devirt-stream: %s::%s: resolver %v, brute force %d targets\n",
			g.Name(site.Class), g.MemberName(site.Member), r.Targets, len(set))
		return 1
	}
	return 0
}

// final re-resolves the census prefix with a fresh serial resolver:
// its census must equal the timed drain's and that of every earlier
// run of this seed and these sizes (kept in the scratch directory).
func (s *devirtSession) final(*tracer) (int, error) {
	r, err := devirt.New(s.snap, core.SemDominance)
	if err != nil {
		return 0, err
	}
	r.Workers = 1
	prefix := s.sites[:s.censusLen()]
	s.fresh = takeCensus(prefix, r.ResolveBatch(prefix, nil))
	bad := 0
	if len(s.drained) == len(prefix) {
		if got := takeCensus(prefix, s.drained); got != s.fresh {
			fmt.Fprintf(os.Stderr, "check: devirt-stream: drained census %+v, fresh %+v\n", got, s.fresh)
			bad++
		}
	}
	path := filepath.Join(s.e.outDir, fmt.Sprintf("census-c%d-m%d-n%d-b%d-seed%d.json",
		s.e.Classes, s.e.MemberNames, s.e.Sites, s.e.Batch, s.e.seed))
	ok, err := sameAsRecorded(path, s.fresh)
	if err != nil {
		return 0, err
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "check: devirt-stream: census %+v differs from the one recorded in %s\n", s.fresh, path)
		bad++
	}
	return bad, nil
}

// sameAsRecorded compares c with the census recorded at path, or
// records it there if there is none yet.
func sameAsRecorded(path string, c census) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err := json.Marshal(c)
		if err != nil {
			return false, err
		}
		return true, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return false, err
	}
	var prev census
	if err := json.Unmarshal(data, &prev); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return prev == c, nil
}

func (s *devirtSession) inputs() map[string]float64 {
	in := map[string]float64{
		"classes":      float64(s.e.Classes),
		"member_names": float64(s.e.MemberNames),
		"sites":        float64(len(s.sites)),
		"batch_size":   float64(s.e.Batch),
	}
	if c := s.fresh; c.Sites > 0 {
		in["census_sites"] = float64(c.Sites)
		in["unique_site_ratio"] = float64(c.Unique) / float64(c.Sites)
		in["monomorphic_share"] = float64(c.Monomorphic) / float64(c.Sites)
	}
	return in
}

func (s *devirtSession) kind() string { return "" }

func (s *devirtSession) shares() map[string]float64 { return nil }

func (s *devirtSession) close() error { return s.im.Close() }
