package worklist

import (
	"sync"
	"testing"
)

func BenchmarkAddDedup(b *testing.B) {
	s := New(1<<20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(0, uint32(i&(1<<20-1)))
	}
}

func BenchmarkDrainOwn(b *testing.B) {
	const items = 1 << 16
	s := New(items, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Reset()
		for v := 0; v < items; v++ {
			s.Add(0, uint32(v))
		}
		b.StartTimer()
		n := 0
		drain(s, 0, func(uint32) { n++ })
		if n != items {
			b.Fatalf("drained %d", n)
		}
	}
}

// BenchmarkDrainStealing measures cross-thread consumption: one producer
// list drained by 4 concurrent consumers.
func BenchmarkDrainStealing(b *testing.B) {
	const items = 1 << 16
	s := New(items, 4)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Reset()
		for v := 0; v < items; v++ {
			s.Add(0, uint32(v))
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for tid := 0; tid < 4; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				drain(s, tid, func(uint32) {})
			}(tid)
		}
		wg.Wait()
	}
}
