// incremental simulates an IDE editing session: the hierarchy is
// built class by class, members are added and removed between
// queries, and each Sync republishes the workspace through the
// engine, carrying every cached answer an edit cannot have changed.
package main

import (
	"fmt"

	"cpplookup/internal/chg"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func main() {
	ws := incremental.New()
	method := func(name string) chg.Member { return chg.Member{Name: name, Kind: chg.Method} }

	// The user types in a small hierarchy.
	object := must(ws.AddClass("Object", nil))
	if err := ws.AddMember(object, method("describe")); err != nil {
		panic(err)
	}
	shape := must(ws.AddClass("Shape", []incremental.BaseDecl{{Class: object}}))
	circle := must(ws.AddClass("Circle", []incremental.BaseDecl{{Class: shape}}))
	must(ws.AddClass("Square", []incremental.BaseDecl{{Class: shape}}))

	binding, _, err := engine.New().BindWorkspace("session", ws)
	if err != nil {
		panic(err)
	}

	show := func(when string) {
		snap := must(binding.Sync())
		fmt.Printf("%s:\n", when)
		for _, name := range []string{"Object", "Shape", "Circle", "Square"} {
			r := snap.LookupByName(name, "describe")
			if r.Found() {
				fmt.Printf("  %s.describe() -> %s::describe\n", name, snap.Graph().Name(r.Class()))
			} else {
				fmt.Printf("  %s.describe() -> ambiguous or missing\n", name)
			}
		}
		c := snap.Carry()
		fmt.Printf("  carry: %d cells carried, %d invalidated\n\n", c.Carried, c.Invalidated)
	}

	show("initial (all inherit Object::describe)")

	// Edit 1: override in Shape. Only the Shape cone is invalidated.
	if err := ws.AddMember(shape, method("describe")); err != nil {
		panic(err)
	}
	show("after adding Shape::describe")

	// Edit 2: override in Circle only.
	if err := ws.AddMember(circle, method("describe")); err != nil {
		panic(err)
	}
	show("after adding Circle::describe")

	// Edit 3: the user deletes the Shape override again.
	if err := ws.RemoveMember(shape, "describe"); err != nil {
		panic(err)
	}
	show("after removing Shape::describe")

	// The whole session can be frozen into an immutable graph for the
	// batch tooling (tables, vtables, DOT export).
	g, err := ws.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot: %s\n", g.ComputeStats())
}
