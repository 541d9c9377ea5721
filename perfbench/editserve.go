package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// editServe is an IDE session: edits and reads interleave on one
// served hierarchy whose cache was warmed completely at set-up.
var editServe = workload{
	name:  "edit-serve",
	why:   "IDE session on a fully warm 20k-class Giant: per step one EditScript op, WorkspaceBinding.Sync (carry of every cell) and a 256-query LookupBatch with cone cells",
	setup: setupEditServe,
	named: func(steps []time.Duration, _ *env) []namedValue { return latencyFigures("edit", steps) },
}

// maxTouched caps the cone cells remembered for the final check.
const maxTouched = 1 << 13

// finalSamples is how many random cells the final checks compare.
const finalSamples = 1 << 12

// applyOp replays one generated edit onto the workspace. A toggle
// consults the current declarations, so a script stays applicable
// whatever earlier ops did.
func applyOp(ws *incremental.Workspace, op hiergen.EditOp) error {
	if op.IsClassAdd() {
		bases := make([]incremental.BaseDecl, 0, len(op.BaseNames))
		for _, name := range op.BaseNames {
			id, ok := ws.ID(name)
			if !ok {
				return fmt.Errorf("%s: unknown base class %q", op, name)
			}
			bases = append(bases, incremental.BaseDecl{Class: id})
		}
		_, err := ws.AddClass(op.NewClass, bases)
		return err
	}
	c, ok := ws.ID(op.Class)
	if !ok {
		return fmt.Errorf("%s: unknown class", op)
	}
	if ws.DeclaresName(c, op.Member) {
		return ws.RemoveMember(c, op.Member)
	}
	return ws.AddMember(c, chg.Member{Name: op.Member, Kind: chg.Method})
}

func opKind(op hiergen.EditOp) string {
	if op.IsClassAdd() {
		return "class-add"
	}
	return "toggle"
}

// kindShares is the share of each op kind in a script.
func kindShares(ops []hiergen.EditOp) map[string]float64 {
	m := map[string]float64{}
	for _, op := range ops {
		m[opKind(op)] += 1 / float64(len(ops))
	}
	return m
}

type editSession struct {
	e     *env
	ws    *incremental.Workspace
	b     *engine.WorkspaceBinding
	snap  *engine.Snapshot
	ops   []hiergen.EditOp
	mix   map[string]float64 // kindShares(ops)
	next  int
	reads []engine.Query // the Zipf part of every requery, consumed in turn
	rpos  int

	res     engine.SyncResult // the last step's sync
	qs      []engine.Query    // the last step's requery
	out     []core.Result
	touched []engine.Query // cone and new-row cells read so far
	rng     *rand.Rand
}

func setupEditServe(e *env) (session, error) {
	tr := e.tr
	sp := tr.begin("hiergen.giant")
	g := giant(e.Classes, e.MemberNames)
	tr.end(sp)
	sp = tr.begin("incremental.from_graph")
	ws, err := incremental.FromGraph(g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.bind_workspace")
	b, snap, err := engine.New().BindWorkspace("edit-serve", ws)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.warm_all")
	snap.WarmAll()
	tr.end(sp)
	// Reads name the served graph's ids: the workspace interns member
	// names in its own order.
	raw := hiergen.CallSites(snap.Graph(), 64*e.Reads, e.seed)
	reads := make([]engine.Query, len(raw))
	for i, s := range raw {
		reads[i] = engine.Query{Class: s.Class, Member: s.Member}
	}
	ops := hiergen.EditScript(g, e.Edits, e.seed)
	return &editSession{
		e: e, ws: ws, b: b, snap: snap, reads: reads, ops: ops, mix: kindShares(ops),
		rng: rand.New(rand.NewSource(e.seed)),
	}, nil
}

func (s *editSession) step(tr *tracer) error {
	if s.next == len(s.ops) {
		return fmt.Errorf("edit script of %d ops exhausted", len(s.ops))
	}
	op := s.ops[s.next]
	s.next++
	sp := tr.begin("incremental.edit")
	err := applyOp(s.ws, op)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("engine.sync")
	s.res, err = s.b.SyncDetail()
	tr.end(sp)
	if err != nil {
		return err
	}
	s.snap = s.res.Snapshot

	// The read set: the next Zipf reads, then the cells the edit can
	// have changed — the cone's first classes per edited member, or
	// the new class's row for the hottest members.
	s.qs = s.qs[:0]
	for i := 0; i < s.e.Reads; i++ {
		s.qs = append(s.qs, s.reads[s.rpos])
		s.rpos = (s.rpos + 1) % len(s.reads)
	}
	zipf := len(s.qs)
	if op.IsClassAdd() {
		c, _ := s.ws.ID(op.NewClass)
		for m := 0; m < s.e.ConeReads && m < s.snap.Graph().NumMemberNames(); m++ {
			s.qs = append(s.qs, engine.Query{Class: c, Member: chg.MemberID(m)})
		}
	}
	for _, ce := range s.res.Cone {
		if len(s.qs)-zipf >= s.e.ConeReads {
			break
		}
		ce.Classes.ForEachUntil(func(c int) bool {
			s.qs = append(s.qs, engine.Query{Class: chg.ClassID(c), Member: ce.Member})
			return len(s.qs)-zipf < s.e.ConeReads
		})
	}
	sp = tr.begin("engine.requery")
	s.out = s.snap.LookupBatch(s.qs, s.out[:0])
	tr.end(sp)
	if room := maxTouched - len(s.touched); room > 0 {
		s.touched = append(s.touched, s.qs[zipf:min(len(s.qs), zipf+room)]...)
	}
	return nil
}

func (s *editSession) observe(tr *tracer) {
	if tr == nil {
		return
	}
	carry := s.snap.Carry()
	tr.add("incremental.cone_entries", float64(len(s.res.Cone)))
	tr.add("engine.carried_cells", float64(carry.Carried))
	tr.add("engine.invalidated_cells", float64(carry.Invalidated))
	tr.add("engine.carry_workers", float64(carry.Workers))
	// After the sync the snapshot held exactly its carried cells; the
	// rest it holds now the requery filled.
	tr.add("engine.requery_fills", float64(s.snap.CachedEntries()-carry.Carried))
	tr.add("engine.requery_queries", float64(len(s.qs)))
}

// check compares sampled requery answers with a fresh lazy analyzer
// over the same frozen graph.
func (s *editSession) check() int {
	oracle := core.New(s.snap.Graph())
	bad := 0
	for k := 0; k < s.e.Samples; k++ {
		i := s.rng.Intn(len(s.qs))
		bad += cellMismatch("edit-serve requery", s.snap.Graph(), s.qs[i], s.out[i], oracle.Lookup(s.qs[i].Class, s.qs[i].Member))
	}
	return bad
}

func cellMismatch(what string, g *chg.Graph, q engine.Query, got, want core.Result) int {
	if got.Equal(want) {
		return 0
	}
	fmt.Fprintf(os.Stderr, "check: %s: %s::%s: got %v, want %v\n", what, g.Name(q.Class), g.MemberName(q.Member), got, want)
	return 1
}

// final compares the carried snapshot with a cold snapshot of the
// final graph on every cone cell read and on random cells.
func (s *editSession) final(*tracer) (int, error) {
	return carriedMismatches(s.snap, s.touched, s.rng), nil
}

// carriedMismatches counts the cells of cells, plus finalSamples
// random ones, that snap answers differently from a cold snapshot of
// its graph.
func carriedMismatches(snap *engine.Snapshot, cells []engine.Query, rng *rand.Rand) int {
	g := snap.Graph()
	cold := engine.NewSnapshot(g)
	qs := append([]engine.Query(nil), cells...)
	for i := 0; i < finalSamples; i++ {
		qs = append(qs, engine.Query{Class: chg.ClassID(rng.Intn(g.NumClasses())), Member: chg.MemberID(rng.Intn(g.NumMemberNames()))})
	}
	bad := 0
	for _, q := range qs {
		bad += cellMismatch("edit-serve final", g, q, snap.Lookup(q.Class, q.Member), cold.Lookup(q.Class, q.Member))
	}
	return bad
}

func (s *editSession) inputs() map[string]float64 {
	return map[string]float64{
		"classes":         float64(s.e.Classes),
		"member_names":    float64(s.e.MemberNames),
		"reads_per_step":  float64(s.e.Reads),
		"cone_reads_max":  float64(s.e.ConeReads),
		"script_edits":    float64(len(s.ops)),
		"edits_applied":   float64(s.next),
		"final_classes":   float64(s.snap.Graph().NumClasses()),
		"cone_cells_read": float64(len(s.touched)),
	}
}

func (s *editSession) kind() string { return opKind(s.ops[s.next-1]) }

func (s *editSession) shares() map[string]float64 { return s.mix }

func (s *editSession) close() error { return nil }
