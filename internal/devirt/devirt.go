// Package devirt answers the question a compiler asks at every
// virtual call site: given a call `x->m()` where x's static type is
// class c, which member definitions can the call actually reach?
//
// Class-hierarchy analysis (CHA) answers it by intersecting the
// lookup table with c's descendant cone: the dynamic type of x is c
// or any class derived from c, so the possible targets are the
// distinct declaring classes that member lookup resolves m to across
// that cone. When the set collapses to a single declaring class the
// site is monomorphic — the compiler can replace the virtual dispatch
// with a direct (inlinable) call.
//
// The target set obeys the reverse of Figure 8's propagation:
//
//	targets(c, m) = {lookup(c, m).class if found} ∪ ⋃ targets(d, m)
//
// over c's direct derived classes d. The cone of c is c plus the
// cones of its direct derived classes, and set union is idempotent,
// so the recurrence is exact under every resolution backend, diamonds
// included. A Resolver walks the cone breadth-first, reads one lookup
// cell per receiver, and stops at any descendant whose target set it
// has already cached; sets whose walk read many cells are cached for
// the life of the Resolver. A snapshot never changes, so the cache
// needs no invalidation: a new snapshot gets a new Resolver.
package devirt

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
)

// Site is one virtual call site: a member called on a receiver whose
// static type is Class.
type Site struct {
	Class  chg.ClassID
	Member chg.MemberID
}

// Resolution is the CHA answer for one (static type, member) pair.
type Resolution struct {
	Root   chg.ClassID
	Member chg.MemberID

	// Targets holds the distinct declaring classes member lookup
	// resolves Member to across Root's cone (Root plus all strict
	// descendants), ascending by class id — the possible override
	// targets of the call. Receivers whose lookup is undefined,
	// ambiguous, or failed contribute no target: a call through them
	// is ill-formed, not a dispatch. Cached answers share one Targets
	// slice across every resolution of the pair; treat it as
	// immutable.
	Targets []chg.ClassID

	// Monomorphic reports len(Targets) == 1: every receiver type that
	// can legally make the call lands in the same declaring class.
	Monomorphic bool

	// FastPath reports the answer came from the Resolver's target-set
	// cache, without a cone walk. It is never set under FullStats.
	FastPath bool

	// Cone is the number of receiver types considered: Root plus its
	// strict descendants. Resolved, Undefined, Ambiguous and Failed
	// tally the cone's lookup outcomes and sum to Cone. All five are
	// exact under Resolver.FullStats and zero otherwise, because a
	// walk that stops at cached descendants never sees their
	// receivers.
	Cone                                   int
	Resolved, Undefined, Ambiguous, Failed int
}

// memoMinReads is the number of lookup cells a walk must read before
// its target set is cached. Small cones are cheap to walk again, and
// caching them would cost more memory than it saves time; tests set
// it to 0 to cache every walk.
var memoMinReads = 64

const cacheShards = 64

// Resolver answers CHA queries against one immutable snapshot under
// one resolution backend, caching the target sets of costly pairs
// (see the package comment). A Resolver's exported fields must be set
// before first use; its methods are safe for concurrent callers.
type Resolver struct {
	snap *engine.Snapshot
	sem  core.SemanticsID
	g    *chg.Graph

	// FullStats makes every resolution walk its whole cone, bypassing
	// the cache, so Cone and the tallies are exact.
	FullStats bool

	// Workers bounds the fan-out of ResolveBatch: 0 picks
	// automatically, 1 forces serial.
	Workers int

	scratch sync.Pool // *walkScratch
	cache   [cacheShards]cacheShard
}

// cacheShard holds the cached target sets of the members m with
// m % cacheShards equal to its index. Each distinct set is stored
// once and shared by every pair resolving to it.
type cacheShard struct {
	mu     sync.RWMutex
	pairs  map[chg.MemberID]map[chg.ClassID]uint32 // member → class → index into sets
	sets   [][]chg.ClassID
	intern map[uint64]uint32 // setHash → index into sets
}

// walkScratch is one walker's reusable buffers. A class is visited by
// the current walk when visit[c] == epoch, and already among the
// walk's targets when mark[c] == epoch.
type walkScratch struct {
	visit, mark []uint32
	epoch       uint32
	queue       []chg.ClassID
	targets     []chg.ClassID
}

// New builds a Resolver over snap's backend sem. It fails when the
// snapshot was not built to serve sem.
func New(snap *engine.Snapshot, sem core.SemanticsID) (*Resolver, error) {
	if !slices.Contains(snap.Semantics(), sem) {
		return nil, fmt.Errorf("devirt: snapshot does not serve backend %q", sem)
	}
	g := snap.Graph()
	r := &Resolver{snap: snap, sem: sem, g: g}
	r.scratch.New = func() any {
		return &walkScratch{visit: make([]uint32, g.NumClasses()), mark: make([]uint32, g.NumClasses())}
	}
	return r, nil
}

// Snapshot returns the snapshot the resolver answers from.
func (r *Resolver) Snapshot() *engine.Snapshot { return r.snap }

// Semantics returns the backend the resolver answers under.
func (r *Resolver) Semantics() core.SemanticsID { return r.sem }

// ResolveTargets is the single-site entry point: the CHA resolution
// of member m called on static type c. Invalid ids yield an empty
// resolution (no targets, zero cone).
func (r *Resolver) ResolveTargets(c chg.ClassID, m chg.MemberID) Resolution {
	sc := r.scratch.Get().(*walkScratch)
	defer r.scratch.Put(sc)
	return r.resolve(sc, c, m)
}

func (r *Resolver) resolve(sc *walkScratch, c chg.ClassID, m chg.MemberID) Resolution {
	res := Resolution{Root: c, Member: m}
	if !r.g.Valid(c) || m < 0 || int(m) >= r.g.NumMemberNames() {
		return res
	}
	if r.FullStats {
		r.walk(sc, c, m, nil, nil, &res)
		res.Targets = clone(sc.targets)
		res.Monomorphic = len(res.Targets) == 1
		return res
	}

	sh := &r.cache[int(m)%cacheShards]
	sh.mu.RLock()
	memo := sh.pairs[m]
	if i, ok := memo[c]; ok {
		res.Targets = sh.sets[i]
		sh.mu.RUnlock()
		res.Monomorphic = len(res.Targets) == 1
		res.FastPath = true
		return res
	}
	reads := r.walk(sc, c, m, memo, sh, nil)
	sh.mu.RUnlock()
	if reads > memoMinReads {
		res.Targets = sh.store(c, m, sc.targets)
	} else {
		res.Targets = clone(sc.targets)
	}
	res.Monomorphic = len(res.Targets) == 1
	return res
}

// walk computes targets(c, m) into sc.targets, sorted, and returns
// the number of lookup cells it read. It visits c's cone breadth-first
// over DirectDerived edges; a strict descendant with an entry in memo
// contributes its cached set (read from sh, whose read lock the
// caller holds) and is not descended past. When tally is non-nil
// (and memo nil, so the whole cone is read) it receives the cone size
// and per-outcome counts.
func (r *Resolver) walk(sc *walkScratch, c chg.ClassID, m chg.MemberID, memo map[chg.ClassID]uint32, sh *cacheShard, tally *Resolution) int {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visit)
		clear(sc.mark)
		sc.epoch = 1
	}
	ep := sc.epoch
	add := func(t chg.ClassID) {
		if sc.mark[t] != ep {
			sc.mark[t] = ep
			sc.targets = append(sc.targets, t)
		}
	}
	sc.targets = sc.targets[:0]
	sc.queue = append(sc.queue[:0], c)
	sc.visit[c] = ep
	reads := 0
	for head := 0; head < len(sc.queue); head++ {
		x := sc.queue[head]
		if i, ok := memo[x]; ok && head > 0 {
			for _, t := range sh.sets[i] {
				add(t)
			}
			continue
		}
		lr, _ := r.snap.LookupSem(r.sem, x, m)
		reads++
		if lr.Found() {
			add(lr.Class())
		}
		if tally != nil {
			switch {
			case lr.Found():
				tally.Resolved++
			case lr.Ambiguous():
				tally.Ambiguous++
			case lr.Failed():
				tally.Failed++
			default:
				tally.Undefined++
			}
		}
		for _, d := range r.g.DirectDerived(x) {
			if sc.visit[d] != ep {
				sc.visit[d] = ep
				sc.queue = append(sc.queue, d)
			}
		}
	}
	if tally != nil {
		tally.Cone = reads
	}
	slices.Sort(sc.targets)
	return reads
}

// store caches ts (sorted) as the target set of (c, m) and returns
// the stored copy, reusing an identical set already stored in the
// shard. A pair another goroutine cached first keeps that answer.
func (sh *cacheShard) store(c chg.ClassID, m chg.MemberID, ts []chg.ClassID) []chg.ClassID {
	h := setHash(ts)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	memo := sh.pairs[m]
	if memo == nil {
		if sh.pairs == nil {
			sh.pairs = map[chg.MemberID]map[chg.ClassID]uint32{}
			sh.intern = map[uint64]uint32{}
		}
		memo = map[chg.ClassID]uint32{}
		sh.pairs[m] = memo
	}
	if i, ok := memo[c]; ok {
		return sh.sets[i]
	}
	i, ok := sh.intern[h]
	if !ok || !slices.Equal(sh.sets[i], ts) {
		i = uint32(len(sh.sets))
		sh.sets = append(sh.sets, clone(ts))
		if !ok {
			sh.intern[h] = i
		}
	}
	memo[c] = i
	return sh.sets[i]
}

// setHash is FNV-1a over a target set's class ids.
func setHash(ts []chg.ClassID) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range ts {
		h = (h ^ uint64(uint32(t))) * 1099511628211
	}
	return h
}

// clone copies ts into a slice of its own, nil when empty.
func clone(ts []chg.ClassID) []chg.ClassID {
	if len(ts) == 0 {
		return nil
	}
	return slices.Clip(slices.Clone(ts))
}

// CacheStats describes a Resolver's target-set cache.
type CacheStats struct {
	Pairs   int // cached (class, member) pairs
	Sets    int // distinct target sets stored for them
	Targets int // class ids stored across those sets
	Bytes   int // approximate memory the cache holds
}

// CacheStats reports the cache's current size, reading each shard
// under its lock.
func (r *Resolver) CacheStats() CacheStats {
	var st CacheStats
	for i := range r.cache {
		sh := &r.cache[i]
		sh.mu.RLock()
		for _, memo := range sh.pairs {
			st.Pairs += len(memo)
		}
		st.Sets += len(sh.sets)
		for _, ts := range sh.sets {
			st.Targets += len(ts)
		}
		sh.mu.RUnlock()
	}
	// A map entry costs about twice its key and value once load factor
	// and control bytes count; a stored set is a slice header, an
	// intern entry and its ids.
	st.Bytes = 16*st.Pairs + (24+24)*st.Sets + 4*st.Targets
	return st
}

// ResolveBatch resolves a whole slice of call sites, appending one
// Resolution per site to out (out[i] answers sites[i]) and returning
// it. Every site goes through the cache, so a pair that repeats —
// hot (type, member) pairs repeat millions of times in real call-site
// streams — walks its cone at most once per Resolver once cached.
// Sites fan out over work-stealing workers in contiguous chunks when
// Workers allows.
func (r *Resolver) ResolveBatch(sites []Site, out []Resolution) []Resolution {
	out = slices.Grow(out, len(sites))
	dst := out[len(out) : len(out)+len(sites)]
	out = out[:len(out)+len(sites)]

	const chunk = 64
	chunks := (len(sites) + chunk - 1) / chunk
	workers := r.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, chunks)
	if workers <= 1 {
		sc := r.scratch.Get().(*walkScratch)
		defer r.scratch.Put(sc)
		for i, s := range sites {
			dst[i] = r.resolve(sc, s.Class, s.Member)
		}
		return out
	}

	// Each site writes its own dst slot, so workers never race on
	// results; cell fills and cache stores synchronize under the
	// engine's and the cache's shard locks.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := r.scratch.Get().(*walkScratch)
			defer r.scratch.Put(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= chunks {
					return
				}
				for k := i * chunk; k < min((i+1)*chunk, len(sites)); k++ {
					dst[k] = r.resolve(sc, sites[k].Class, sites[k].Member)
				}
			}
		}()
	}
	wg.Wait()
	return out
}
