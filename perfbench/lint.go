package main

import (
	"fmt"
	"os"
	"time"

	"cpplookup/internal/core"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
	"cpplookup/internal/lint"
)

// lintSession is chglint's incremental session: every rule, every
// backend column, re-run over each edit's cone.
var lintSession = workload{
	name:  "lint-session",
	why:   "chglint incremental session on a 1k-class Giant with dominance, C3 and gxx columns: per step one EditScript op and lint.Session.Sync; the only workload driving lint and diag",
	setup: setupLint,
	named: func(steps []time.Duration, _ *env) []namedValue { return latencyFigures("relint", steps) },
}

// lintSnapshotOptions are chglint's snapshot options with every
// backend column the cross-semantics rules read.
func lintSnapshotOptions() []core.Option {
	return []core.Option{core.WithStaticRule(), core.WithTrackPaths(), core.WithSemantics(core.SemC3, core.SemGxx)}
}

var lintOptions = lint.Options{File: "giant"}

type lintSess struct {
	e       *env
	ws      *incremental.Workspace
	sess    *lint.Session
	ops     []hiergen.EditOp
	mix     map[string]float64 // kindShares(ops)
	next    int
	initial int

	// State before the last step, recorded untimed after the one
	// before it.
	gen   uint64
	prev  []diag.Diagnostic
	stats lint.SessionStats
	delta diag.Delta
}

func setupLint(e *env) (session, error) {
	tr := e.tr
	sp := tr.begin("hiergen.giant")
	g := giant(e.LintClasses, e.LintClasses)
	tr.end(sp)
	sp = tr.begin("incremental.from_graph")
	ws, err := incremental.FromGraph(g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.bind_workspace")
	b, _, err := engine.New().BindWorkspace("lint-session", ws, lintSnapshotOptions()...)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("lint.new_session")
	sess, err := lint.NewSession(b, lintOptions)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ops := hiergen.EditScript(g, e.Edits, e.seed)
	return &lintSess{
		e: e, ws: ws, sess: sess, ops: ops, mix: kindShares(ops),
		initial: len(sess.Diagnostics()),
		gen:     ws.Generation(), prev: sess.Diagnostics(), stats: sess.Stats(),
	}, nil
}

func (s *lintSess) step(tr *tracer) error {
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
	sp = tr.begin("lint.sync")
	s.delta, err = s.sess.Sync()
	tr.end(sp)
	return err
}

func (s *lintSess) observe(tr *tracer) {
	if tr == nil {
		return
	}
	if cone, ok := s.ws.InvalidationConeSince(s.gen); ok {
		tr.add("incremental.cone_entries", float64(len(cone)))
	}
	st := s.sess.Stats()
	tr.add("lint.member_tasks", float64(st.MemberTasks-s.stats.MemberTasks))
	tr.add("lint.row_tasks", float64(st.RowTasks-s.stats.RowTasks))
	tr.add("lint.structural_tasks", float64(st.StructuralTasks-s.stats.StructuralTasks))
	tr.add("lint.delta_size", float64(len(s.delta.Added)+len(s.delta.Fixed)))
}

// check verifies the delta: the findings before the sync, minus the
// fixed ones, plus the added ones, must be the findings after it.
func (s *lintSess) check() int {
	want := fingerprints(s.prev)
	for _, d := range s.delta.Fixed {
		want[diag.Fingerprint(d)]--
	}
	for _, d := range s.delta.Added {
		want[diag.Fingerprint(d)]++
	}
	bad := 0
	if !sameMultiset(want, fingerprints(s.sess.Diagnostics())) {
		fmt.Fprintf(os.Stderr, "check: lint-session: edit %d: findings before + delta != findings after\n", s.next)
		bad++
	}
	s.gen, s.prev, s.stats = s.ws.Generation(), s.sess.Diagnostics(), s.sess.Stats()
	return bad
}

func fingerprints(ds []diag.Diagnostic) map[uint64]int {
	m := make(map[uint64]int, len(ds))
	for _, d := range ds {
		m[diag.Fingerprint(d)]++
	}
	return m
}

func sameMultiset(a, b map[uint64]int) bool {
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	for k, n := range b {
		if a[k] != n {
			return false
		}
	}
	return true
}

// final lints a cold snapshot of the final graph from scratch; its
// findings must be the session's as a fingerprint multiset. A traced
// run then times each rule alone over the same (built) tables.
func (s *lintSess) final(tr *tracer) (int, error) {
	cold := engine.NewSnapshot(s.sess.Snapshot().Graph(), lintSnapshotOptions()...)
	sp := tr.begin("engine.table")
	cold.Table()
	tr.end(sp)
	sp = tr.begin("lint.full")
	ds, err := lint.Run(cold, lintOptions)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	bad := findingsDiffer(s.sess.Diagnostics(), ds)
	if tr == nil {
		return bad, nil
	}
	for _, id := range lint.RuleIDs() {
		opts := lintOptions
		opts.Rules = []string{id}
		sp := tr.begin("lint.rule." + id)
		_, err := lint.Run(cold, opts)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return bad, nil
}

// findingsDiffer reports (as 0 or 1) whether the session's findings
// and a cold run's differ as fingerprint multisets.
func findingsDiffer(session, cold []diag.Diagnostic) int {
	if sameMultiset(fingerprints(session), fingerprints(cold)) {
		return 0
	}
	fmt.Fprintf(os.Stderr, "check: lint-session: session has %d findings, a cold lint.Run %d, and they differ\n",
		len(session), len(cold))
	return 1
}

func (s *lintSess) inputs() map[string]float64 {
	g := s.sess.Snapshot().Graph()
	return map[string]float64{
		"classes":          float64(s.e.LintClasses),
		"member_names":     float64(s.e.LintClasses),
		"script_edits":     float64(len(s.ops)),
		"edits_applied":    float64(s.next),
		"initial_findings": float64(s.initial),
		"final_findings":   float64(len(s.sess.Diagnostics())),
		"final_classes":    float64(g.NumClasses()),
	}
}

func (s *lintSess) kind() string { return opKind(s.ops[s.next-1]) }

func (s *lintSess) shares() map[string]float64 { return s.mix }

func (s *lintSess) close() error { return nil }
