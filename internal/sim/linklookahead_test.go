package sim

import (
	"strings"
	"testing"
)

// TestLinkLookaheadValidPasses declares a link bound tighter than the
// window and posts cross events that respect it: everything delivers,
// in order, with no panic.
func TestLinkLookaheadValidPasses(t *testing.T) {
	g := NewShardGroup(1, 2, Microsecond)
	g.SetLinkLookahead(g.Shard(0), g.Shard(1), 5*Microsecond)
	delivered := 0
	for i := 0; i < 4; i++ {
		at := Duration(i) * 2 * Microsecond
		g.Shard(0).Schedule(at, func() {
			g.Shard(0).CrossSchedule(g.Shard(1), 5*Microsecond, func() { delivered++ })
		})
	}
	g.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d of 4 cross events", delivered)
	}
}

// TestLinkLookaheadViolationPanics posts a cross event that satisfies
// the group lookahead (so the window barrier alone would accept it) but
// undercuts the declared link bound: the barrier must catch it.
func TestLinkLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(1, 2, Microsecond)
	g.SetLinkLookahead(g.Shard(0), g.Shard(1), 5*Microsecond)
	g.Shard(0).Schedule(0, func() {
		// 2 us ≥ the 1 us group lookahead but < the 5 us link bound.
		g.Shard(0).CrossSchedule(g.Shard(1), 2*Microsecond, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected link-lookahead violation panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "link lookahead violated") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g.Run()
}

// TestLinkLookaheadOnlyDeclaredDirection checks the bound is per
// directed link: tightening 0→1 leaves 1→0 governed by the group
// lookahead alone.
func TestLinkLookaheadOnlyDeclaredDirection(t *testing.T) {
	g := NewShardGroup(1, 2, Microsecond)
	g.SetLinkLookahead(g.Shard(0), g.Shard(1), 5*Microsecond)
	delivered := 0
	g.Shard(1).Schedule(0, func() {
		g.Shard(1).CrossSchedule(g.Shard(0), Microsecond, func() { delivered++ })
	})
	g.Run()
	if delivered != 1 {
		t.Fatalf("reverse-direction cross event not delivered")
	}
}

// TestLinkLookaheadBelowGroupPanics: a link bound below the group
// lookahead would make the window width itself unsound, so declaring
// one is rejected immediately.
func TestLinkLookaheadBelowGroupPanics(t *testing.T) {
	g := NewShardGroup(1, 2, Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for link bound below group lookahead")
		}
	}()
	g.SetLinkLookahead(g.Shard(0), g.Shard(1), 500*Nanosecond)
}

// TestLinkLookaheadForeignEnginePanics: both endpoints must be shards
// of the group being configured.
func TestLinkLookaheadForeignEnginePanics(t *testing.T) {
	g := NewShardGroup(1, 2, Microsecond)
	other := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for engine outside the group")
		}
	}()
	g.SetLinkLookahead(g.Shard(0), other, 5*Microsecond)
}
