package core

import (
	"testing"

	"thriftylp/graph/gen"
)

// TestArenaReuseKeepsResultsCorrect runs every arena-wired kernel twice on
// the same arena and checks both results against the sequential oracle: the
// second run's recycled buffers must not leak state from the first.
func TestArenaReuseKeepsResultsCorrect(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 3)))
	oracle := SeqCC(g)
	algos := map[string]func(cfg Config) Result{
		"thrifty":       func(cfg Config) Result { return Thrifty(g, cfg) },
		"dolp":          func(cfg Config) Result { return DOLP(g, cfg) },
		"dolp-unified":  func(cfg Config) Result { return DOLPUnified(g, cfg) },
		"lp":            func(cfg Config) Result { return LP(g, cfg) },
		"sv":            func(cfg Config) Result { return ShiloachVishkin(g, cfg) },
		"afforest":      func(cfg Config) Result { return Afforest(g, cfg) },
		"jt":            func(cfg Config) Result { return JayantiTarjan(g, cfg) },
		"bfs":           func(cfg Config) Result { return BFSCC(g, cfg) },
		"connectit-bfs": func(cfg Config) Result { return ConnectItBFS(g, cfg) },
	}
	for name, run := range algos {
		t.Run(name, func(t *testing.T) {
			a := &Arena{}
			for rep := 0; rep < 3; rep++ {
				a.BeginRun()
				res := run(Config{Arena: a})
				if !Equivalent(res.Labels, oracle) {
					t.Fatalf("rep %d: labels disagree with oracle", rep)
				}
			}
		})
	}
}

// TestArenaRecyclesBuffers: the second run on the same-size graph must get
// the same backing array back, and a size change must not (silently) hand
// out a short buffer.
func TestArenaRecyclesBuffers(t *testing.T) {
	a := &Arena{}
	a.BeginRun()
	b1 := a.Uint32s(1000)
	a.BeginRun()
	b2 := a.Uint32s(1000)
	if &b1[0] != &b2[0] {
		t.Fatal("same-size reacquisition did not recycle the buffer")
	}
	a.BeginRun()
	b3 := a.Uint32s(2000)
	if len(b3) != 2000 {
		t.Fatalf("len = %d, want 2000", len(b3))
	}
	// Shrinking reuses the larger backing array.
	a.BeginRun()
	b4 := a.Uint32s(500)
	if len(b4) != 500 {
		t.Fatalf("len = %d, want 500", len(b4))
	}
	if &b3[0] != &b4[0] {
		t.Fatal("shrunk reacquisition did not recycle the grown buffer")
	}
}

// TestArenaWorklistResetsStaleMarks: recycle a worklist whose mark array
// holds marks its truncated lists no longer account for (the stale detailed
// frontier of a bygone run) and check the next run sees a clean set.
func TestArenaWorklistResetsStaleMarks(t *testing.T) {
	a := &Arena{}
	a.BeginRun()
	s := a.Worklist(64, 2)
	s.AddUnchecked(0, 7)
	s.AddUnchecked(1, 33)
	s.Reset() // per-iteration reset: unmarks only the queued vertices
	s.AddUnchecked(0, 12)
	// 12 is marked but its list entry is abandoned without Reset — the
	// stale state an arena hand-off must clear.
	a.BeginRun()
	s2 := a.Worklist(64, 2)
	if s2 != s {
		t.Fatal("matching worklist was not recycled")
	}
	for v := 0; v < 64; v++ {
		if s2.Contains(uint32(v)) {
			t.Fatalf("recycled worklist still marks vertex %d", v)
		}
	}
	if !s2.Empty() {
		t.Fatal("recycled worklist not empty")
	}
	// Mismatched shape (thread count) replaces rather than recycles.
	a.BeginRun()
	s3 := a.Worklist(64, 4)
	if s3 == s2 {
		t.Fatal("worklist with different thread count was recycled")
	}
	if s3.Cap() != 64 || s3.Threads() != 4 {
		t.Fatalf("replacement worklist cap=%d threads=%d", s3.Cap(), s3.Threads())
	}
}

// TestArenaBitmapCleared: a recycled bitmap must come back with no bits set.
func TestArenaBitmapCleared(t *testing.T) {
	a := &Arena{}
	a.BeginRun()
	b := a.Bitmap(256)
	b.Set(3)
	b.Set(200)
	a.BeginRun()
	b2 := a.Bitmap(256)
	if b2 != b {
		t.Fatal("matching bitmap was not recycled")
	}
	if b2.Any() {
		t.Fatal("recycled bitmap has surviving bits")
	}
	a.BeginRun()
	if b3 := a.Bitmap(300); b3 == b2 {
		t.Fatal("bitmap of different size was recycled")
	}
}

// TestArenaNilFallsBack: a nil arena must behave exactly like plain
// allocation.
func TestArenaNilFallsBack(t *testing.T) {
	var a *Arena
	a.BeginRun() // must not panic
	if got := a.Uint32s(10); len(got) != 10 {
		t.Fatalf("nil arena Uint32s len = %d", len(got))
	}
	if s := a.Worklist(10, 2); s.Cap() != 10 || s.Threads() != 2 {
		t.Fatal("nil arena Worklist wrong shape")
	}
	if b := a.Bitmap(10); b.Len() != 10 {
		t.Fatal("nil arena Bitmap wrong size")
	}
}

// BenchmarkThriftyArenaReuse measures steady-state allocation of repeated
// Thrifty runs with a shared arena versus fresh allocation per run; the
// allocs/op gap is the arena's whole point.
func BenchmarkThriftyArenaReuse(b *testing.B) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(14, 8, 3)))
	b.Run("arena", func(b *testing.B) {
		a := &Arena{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.BeginRun()
			res := Thrifty(g, Config{Arena: a})
			if len(res.Labels) != g.NumVertices() {
				b.Fatal("bad result")
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := Thrifty(g, Config{})
			if len(res.Labels) != g.NumVertices() {
				b.Fatal("bad result")
			}
		}
	})
}
