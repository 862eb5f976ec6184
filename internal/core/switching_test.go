package core

import (
	"testing"

	"repro/internal/cache"
)

// Mode-transition coverage for the dynamic switching baselines: a set
// that flips between non-inclusive and exclusive mode inherits the other
// mode's residual LLC state and must handle it correctly.

// electWinner forces the duel to the given winner and freezes it there
// (the window length is pushed out so no re-election overturns it).
func electWinner(c *switching, want cache.Role, _ uint64) {
	c.duel.SetWinner(want)
	c.duel.PeriodCycles = 1 << 60
}

func TestSwitchNoniToExInvalidatesResidualDuplicate(t *testing.T) {
	x := testCtx(0)
	c := NewFLEXclusion().(*switching)
	// Follower set (e.g. set 2, since 8 sets < stride 64 -> roles by %64:
	// set 2 is a follower) starts in noni mode (A wins by default).
	const block = 2   // maps to set 2
	c.Fetch(x, block) // noni: fill
	if x.L3.Probe(block) < 0 {
		t.Fatal("setup: no duplicate")
	}
	// Flip followers to exclusive.
	electWinner(c, cache.LeaderB, 1)
	x.Now = 2
	r := c.Fetch(x, block)
	if !r.Hit {
		t.Fatal("residual duplicate not served")
	}
	if x.L3.Probe(block) >= 0 {
		t.Fatal("exclusive mode kept the duplicate on hit")
	}
}

func TestSwitchExToNoniUpdatesResidualVictim(t *testing.T) {
	x := testCtx(0)
	c := NewFLEXclusion().(*switching)
	electWinner(c, cache.LeaderB, 1) // exclusive first
	const block = 2
	x.Now = 2
	c.EvictL2(x, cleanLine(block)) // exclusive insertion
	if x.L3.Probe(block) < 0 {
		t.Fatal("setup: victim not installed")
	}
	// Flip back to non-inclusive; a dirty victim now finds the residual
	// copy and must update it in place, not double-insert.
	electWinner(c, cache.LeaderA, 3)
	x.Now = 4
	writes := x.Met.WritesToLLC()
	c.EvictL2(x, dirtyLine(block))
	if x.Met.WritesToLLC() != writes+1 {
		t.Fatal("residual victim not updated in a single write")
	}
	set := x.L3.SetOf(block)
	w := x.L3.Probe(block)
	if w < 0 || !x.L3.Line(set, w).Dirty {
		t.Fatal("residual copy lost its update")
	}
}

func TestSwitchingLeadersImmuneToWinner(t *testing.T) {
	x := testCtx(0)
	c := NewFLEXclusion().(*switching)
	electWinner(c, cache.LeaderB, 1)
	// Set 0 remains a noni leader: misses must still fill.
	x.Now = 2
	c.Fetch(x, 0)
	if x.L3.Probe(0) < 0 {
		t.Fatal("noni leader stopped filling after B won")
	}
	// Set 1 remains an ex leader: misses must still bypass.
	c.Fetch(x, 1)
	if x.L3.Probe(1) >= 0 {
		t.Fatal("ex leader filled")
	}
}

func TestSwitchingChargesOnlyLeaders(t *testing.T) {
	x := testCtx(0)
	c := NewDswitch(1.0, 0.436).(*switching)
	c.duel.PeriodCycles = 1_000_000
	// Misses in follower sets must not move the duel costs.
	c.Fetch(x, 2) // follower set
	c.Fetch(x, 3)
	d := c.duel
	d.AddCost(cache.LeaderA, 0) // no-op, just to access
	// Miss in each leader set moves its own counter only.
	c.Fetch(x, 0) // LeaderA
	c.Fetch(x, 1) // LeaderB
	// Force an election and verify the winner reflects only leader costs:
	// A paid miss+fill write, B paid miss only -> B must win.
	d.Observe(2_000_000)
	if d.Winner() != cache.LeaderB {
		t.Fatalf("winner = %v; follower costs leaked into the duel", d.Winner())
	}
}

func TestLAPVictimSelectorFollowsDuel(t *testing.T) {
	x := testCtx(0)
	c := NewLAP()
	c.Duel().PeriodCycles = 1
	// Force LRU (LeaderB) to win.
	c.Duel().AddCost(cache.LeaderA, 1e9)
	c.Duel().Observe(1)
	// Fill follower set 2 with loop-blocks plus one older non-loop block;
	// under LRU the oldest (the loop block at way 0) is evicted, under
	// loop-aware the non-loop one would be.
	set := 2
	x.L3.InsertAt(set, 0, 2, false, true, false) // oldest, loop
	x.L3.InsertAt(set, 1, 10, false, false, false)
	x.L3.InsertAt(set, 2, 18, false, true, false)
	x.L3.InsertAt(set, 3, 26, false, true, false)
	sel := c.victimSelector(x)
	if w := sel(set); w != 0 {
		t.Fatalf("duel winner LRU but selector chose way %d", w)
	}
	// Flip to loop-aware (LeaderA).
	c.Duel().AddCost(cache.LeaderB, 1e9)
	c.Duel().Observe(2)
	if w := sel(set); w != 1 {
		t.Fatalf("duel winner loop-aware but selector chose way %d", w)
	}
}

func TestHybridWithoutSRAMDegradesToLAP(t *testing.T) {
	x := testCtx(0) // single-tech L3
	c := NewLhybrid()
	c.EvictL2(x, cleanLine(5))
	if x.L3.Probe(5) < 0 {
		t.Fatal("hybrid-on-single-tech dropped the insertion")
	}
	if x.Met.MigrationWrites != 0 {
		t.Fatal("migration on a single-tech cache")
	}
}

func TestMetricsAddWriteSources(t *testing.T) {
	var m Metrics
	m.AddWrite(SrcFill)
	m.AddWrite(SrcDirty)
	m.AddWrite(SrcDirty)
	m.AddWrite(SrcClean)
	if m.WritesFill != 1 || m.WritesDirty != 2 || m.WritesClean != 1 {
		t.Fatalf("write decomposition wrong: %+v", m)
	}
	if m.WritesToLLC() != 4 {
		t.Fatal("total wrong")
	}
}
