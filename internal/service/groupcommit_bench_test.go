package service

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkConcurrentDurableAppend measures durable append throughput with N
// concurrent clients hammering one corpus through the group-commit pipeline,
// under both acknowledgment modes:
//
//	commit=group        fsync acks: one fsync covers every record queued
//	                    while the previous fsync was in flight.
//	commit=relaxed      ack-on-queue appends (the fsync still happens, off
//	                    the ack path, on the interval floor).
//
// A lone group-commit appender pays one fsync per append, so clients=1 is
// the one-fsync-per-append baseline; the clients=1/clients=16 ratio of
// commit=group is how far batching scales throughput with client count,
// until the disk's bandwidth, not its sync rate, is the limit.
func BenchmarkConcurrentDurableAppend(b *testing.B) {
	const batchLen = 64
	chunk := strings.Repeat("01101", batchLen/5+1)[:batchLen]
	for _, bench := range []struct {
		name string
		mode Durability
	}{
		{"commit=group", DurabilityFsync},
		{"commit=relaxed", DurabilityRelaxed},
	} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", bench.name, clients), func(b *testing.B) {
				store, err := NewStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				e := &Executor{Cache: NewCache(0), Store: store}
				defer e.Close()
				if _, _, err := e.AddCorpus("bench", "0101101001", ModelSpec{}); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Append("bench", chunk); err != nil {
					b.Fatal(err) // promote once, outside the timed loop
				}
				b.SetBytes(int64(batchLen))
				b.ResetTimer()
				var remaining atomic.Int64
				remaining.Store(int64(b.N))
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for remaining.Add(-1) >= 0 {
							if _, err := e.AppendMode("bench", chunk, bench.mode); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				// Relaxed acks race the covering fsync; a trailing fsync-mode
				// append queues behind every measured record, so its return
				// means they are all durable — and counted — before the
				// stats are read and the executor closes.
				if _, err := e.AppendMode("bench", chunk, DurabilityFsync); err != nil {
					b.Fatal(err)
				}
				if lc := e.liveGet("bench"); lc != nil {
					b.ReportMetric(lc.CommitStats().AppendsPerFsync, "appends/fsync")
				}
			})
		}
	}
}
