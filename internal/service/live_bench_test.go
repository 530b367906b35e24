package service

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkLiveAppend measures the daemon's full durable append path —
// encode, group-committed WAL write + fsync, in-memory index extension —
// per batch, at several batch sizes. One client pays one fsync per append,
// so the gap between this and the in-memory BenchmarkAppend
// (internal/counts) is the per-append fsync cost BENCH_5 records.
func BenchmarkLiveAppend(b *testing.B) {
	for _, batchLen := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batchLen), func(b *testing.B) {
			dir := b.TempDir()
			store, err := NewStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			e := &Executor{Cache: NewCache(0), Store: store}
			defer e.Close()
			if _, _, err := e.AddCorpus("bench", "0101101001", ModelSpec{}); err != nil {
				b.Fatal(err)
			}
			chunk := strings.Repeat("01101", batchLen/5+1)[:batchLen]
			if _, err := e.Append("bench", chunk); err != nil {
				b.Fatal(err) // promote once, outside the timed loop
			}
			b.SetBytes(int64(batchLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Append("bench", chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveAppendMemory is the same path without a store (no WAL, no
// fsync) — the subtraction baseline for the fsync cost.
func BenchmarkLiveAppendMemory(b *testing.B) {
	for _, batchLen := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batchLen), func(b *testing.B) {
			e := &Executor{Cache: NewCache(0)}
			if _, _, err := e.AddCorpus("bench", "0101101001", ModelSpec{}); err != nil {
				b.Fatal(err)
			}
			chunk := strings.Repeat("01101", batchLen/5+1)[:batchLen]
			if _, err := e.Append("bench", chunk); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(batchLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Append("bench", chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
