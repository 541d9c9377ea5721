package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/lexer"
	"cpplookup/internal/cpp/parser"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/engine"
	"cpplookup/internal/harness"
	"cpplookup/internal/image"
)

// compileGiant is the `cpplookup -save-image` path on one large
// translation unit: front end, lazy fill of every cell, image writer.
var compileGiant = workload{
	name:  "compile-giant",
	why:   "cpplookup -save-image on a 20k-class Giant TU with 20k Zipf accesses: only here do lexer, parser, sema, WarmAll and the image writer do most of the work",
	setup: setupCompile,
	named: func(steps []time.Duration, _ *env) []namedValue {
		return []namedValue{{name: "compile_s", value: mean(steps).Seconds(), unit: "s", note: fmt.Sprintf(" (mean of n=%d translation units)", len(steps))}}
	},
}

// giant builds the hierarchy every workload shares the shape of: the
// devirt experiment's GiantDefaults with its member-name universe,
// under the generator's own fixed seed. The workload seed drives
// everything drawn over it (accesses, call sites, edit scripts, reads),
// so the spread between seeds is that of the streams, not of the
// hierarchy.
func giant(classes, memberNames int) *chg.Graph {
	return harness.DevirtConfig{Classes: classes, MemberNames: memberNames}.Make()
}

// visibleShare is the share of compile-giant accesses drawn from the
// members declared on a path up from the receiver class; the rest name
// a Zipf-drawn member, most of which the receiver cannot see.
const visibleShare = 0.9

// renderUnit renders g as C++ followed by one function per access,
// `void fK(C *p) { p->m(); }`, receivers Zipf over class ids (s=1.1,
// the call-site stream's skew) and member names as visibleShare says.
func renderUnit(g *chg.Graph, accesses int, seed int64) (string, error) {
	var sb strings.Builder
	if err := g.WriteSource(&sb); err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	classZipf := rand.NewZipf(rng, 1.1, 8, uint64(g.NumClasses()-1))
	memberZipf := rand.NewZipf(rng, 1.3, 1, uint64(g.NumMemberNames()-1))
	var cands []string
	for k := 0; k < accesses; k++ {
		c := chg.ClassID(classZipf.Uint64())
		name := ""
		if rng.Float64() < visibleShare {
			// A random walk up the bases collects the declarations
			// on one path from c to a root.
			cands = cands[:0]
			for cur := c; ; {
				for _, m := range g.DeclaredMembers(cur) {
					cands = append(cands, m.Name)
				}
				bs := g.DirectBases(cur)
				if len(bs) == 0 {
					break
				}
				cur = bs[rng.Intn(len(bs))].Base
			}
			if len(cands) > 0 {
				name = cands[rng.Intn(len(cands))]
			}
		}
		if name == "" {
			name = g.MemberName(chg.MemberID(memberZipf.Uint64()))
		}
		fmt.Fprintf(&sb, "void f%d(%s *p) { p->%s(); }\n", k, g.Name(c), name)
	}
	return sb.String(), nil
}

type compileSession struct {
	src  string
	img  string
	unit *sema.Unit       // the last step's unit
	snap *engine.Snapshot // the last step's snapshot
	// parseErrs counts the last step's parse errors; the generated
	// unit must have none.
	parseErrs int
	e         *env
}

func setupCompile(e *env) (session, error) {
	sp := e.tr.begin("hiergen.giant")
	g := giant(e.Classes, e.MemberNames)
	e.tr.end(sp)
	sp = e.tr.begin("perfbench.render_unit")
	src, err := renderUnit(g, e.Accesses, e.seed)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &compileSession{src: src, img: filepath.Join(e.outDir, fmt.Sprintf("compile-seed%d.img", e.seed)), e: e}, nil
}

// step compiles the unit the way cpplookup -save-image does, with
// parser and sema called separately (sema.AnalyzeSource is exactly the
// two) so that each gets its own span.
func (s *compileSession) step(tr *tracer) error {
	s.unit, s.snap = nil, nil // let the last step's unit go before this one builds
	sp := tr.begin("cpp.parse")
	file, perrs := parser.Parse(s.src)
	tr.end(sp)
	sp = tr.begin("cpp.sema")
	unit, err := sema.Analyze(file)
	tr.end(sp)
	s.parseErrs = len(perrs)
	if err != nil {
		return err
	}
	sp = tr.begin("engine.snapshot")
	snap := engine.NewSnapshot(unit.Graph, core.WithStaticRule(), core.WithTrackPaths())
	tr.end(sp)
	sp = tr.begin("engine.warm_all")
	snap.WarmAll()
	tr.end(sp)
	sp = tr.begin("image.write")
	err = image.WriteFile(s.img, snap)
	tr.end(sp)
	s.unit, s.snap = unit, snap
	return err
}

// observe times the lexer on its own (Parse lexes internally, so
// cpp.parse_ms includes lexing) and records the step's sizes.
func (s *compileSession) observe(tr *tracer) {
	if tr == nil {
		return
	}
	sp := tr.begin("cpp.lex")
	toks, _ := lexer.Tokenize(s.src)
	tr.end(sp)
	tr.add("cpp.tokens", float64(len(toks)))
	tr.add("cpp.resolutions", float64(len(s.unit.Resolutions)))
	tr.add("cpp.diagnostics", float64(len(s.unit.Diags)))
	tr.add("engine.cells_filled", float64(s.snap.CachedEntries()))
	if st, err := os.Stat(s.img); err == nil {
		tr.add("image.bytes", float64(st.Size()))
	}
}

// check reopens the written image and compares every resolution sema
// made with the image's answer for the same (class, member). The
// generated unit must also parse without errors.
func (s *compileSession) check() int {
	bad := s.parseErrs
	im, err := image.OpenFile(s.img)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: compile-giant: reopening the image: %v\n", err)
		return bad + 1
	}
	defer im.Close()
	return bad + resolutionMismatches(s.unit, im.Snapshot())
}

// resolutionMismatches counts the resolutions in u that img answers
// differently. A member name the unit never declares has no column in
// the image; sema must then have found nothing.
func resolutionMismatches(u *sema.Unit, img *engine.Snapshot) int {
	g := img.Graph()
	bad := 0
	for _, r := range u.Resolutions {
		c, okC := g.ID(u.Graph.Name(r.Context))
		m, okM := g.MemberID(r.MemberName)
		var ok bool
		switch {
		case !okC:
			ok = false
		case !okM:
			ok = !r.Result.Found() && !r.Result.Ambiguous()
		default:
			ok = img.Lookup(c, m).Equal(r.Result)
		}
		if !ok {
			if bad == 0 {
				fmt.Fprintf(os.Stderr, "check: compile-giant: %s::%s: sema %v, image disagrees\n",
					u.Graph.Name(r.Context), r.MemberName, r.Result)
			}
			bad++
		}
	}
	return bad
}

func (s *compileSession) final(*tracer) (int, error) { return 0, nil }

func (s *compileSession) inputs() map[string]float64 {
	in := map[string]float64{
		"classes":      float64(s.e.Classes),
		"member_names": float64(s.e.MemberNames),
		"accesses":     float64(s.e.Accesses),
		"source_bytes": float64(len(s.src)),
	}
	if s.unit != nil {
		in["sema_error_share"] = float64(len(s.unit.Diags)) / float64(s.e.Accesses)
	}
	return in
}

func (s *compileSession) kind() string { return "" }

func (s *compileSession) shares() map[string]float64 { return nil }

func (s *compileSession) close() error {
	s.unit, s.snap = nil, nil
	if err := os.Remove(s.img); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
