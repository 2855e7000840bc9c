// protocol: a node-by-node walkthrough of sharing-list persistency (§IV).
//
// This example drives the sharing list the simulated machine runs
// (internal/coherence/slc) directly, printing it as three writers of one
// cacheline queue up and are invalidated non-destructively, and then
// persist strictly tail-to-head as the clear token passes up the list.
package main

import (
	"fmt"

	"repro/internal/coherence/slc"
	"repro/internal/mem"
)

// state names a node's protocol state: D (valid dirty), PI (invalid,
// pending persist), V (clean valid sharer; clean invalid nodes are swept).
func state(n *slc.Node) string {
	switch {
	case n.Dirty && n.Valid:
		return "D"
	case n.Dirty:
		return "PI"
	}
	return "V"
}

func show(l *slc.List, what string) {
	fmt.Printf("  %-34s list(head→tail):", what)
	for n := l.Head(); n != nil; n = n.Next() {
		fmt.Printf("  cache%d[%s %v]", n.Cache, state(n), n.Version)
	}
	fmt.Println()
}

// persist retires a clear dirty node into NVM and shows which nodes the
// clear token reached.
func persist(l *slc.List, n *slc.Node) {
	up := l.MarkPersisted(n)
	fmt.Printf("  >> cache%d persisted %v to NVM", n.Cache, n.Version)
	for _, c := range up.NewlyClear {
		fmt.Printf("; now clear: cache%d", c.Cache)
	}
	fmt.Println()
}

func main() {
	l := slc.NewList(mem.Line(0x40))
	fmt.Println("Sharing-list persistency, node by node (§IV)")

	// Three writers queue up on one line: each joins at the head and
	// invalidates the older copies without unlinking them.
	var w [3]*slc.Node
	for c := range w {
		for _, old := range l.ValidNodes() {
			l.Invalidate(old)
		}
		w[c] = l.AddHead(c, true, true, mem.Version{Core: c, Seq: 1}, 0)
		show(l, fmt.Sprintf("after cache%d writes v%d:", c, c))
	}
	fmt.Println("\n  Non-destructive invalidation: the two older versions stay")
	fmt.Println("  on the list in PI (invalid dirty), awaiting ordered persist.")

	fmt.Printf("\n  MIDDLE version (cache1) clear to persist? %v: cache0 is below it.\n", w[1].Clear())

	fmt.Println("\n  Persist the OLDEST version (cache0), then follow the token:")
	persist(l, w[0])
	persist(l, w[1])
	show(l, "after tail-to-head persists:")

	fmt.Println("\n  Persist the head (cache2): it persists in place and stays")
	fmt.Println("  on the list as a clean valid sharer.")
	persist(l, w[2])
	show(l, "after head persist:")

	if err := l.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Printf("\n  NVM now holds %v — the last write, reached strictly in order.\n", w[2].Version)
}
