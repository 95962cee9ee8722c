package workload

// Stream-ingest microbenchmark: a generated trace refilled in batches, the
// way the cpu.Core batch buffer consumes every core's stream.

import "testing"

// benchStream returns a fresh native stream of a scientific workload.
func benchStream(b *testing.B) Stream {
	g, err := ByName("WATER-NS", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	return g.Streams(1, 17)[0]
}

func BenchmarkNextBatch(b *testing.B) {
	s := benchStream(b)
	buf := make([]Entry, 256)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	done := 0
	for done < b.N {
		n := s.NextBatch(buf)
		if n == 0 {
			b.StopTimer()
			s = benchStream(b)
			b.StartTimer()
			continue
		}
		for _, e := range buf[:n] {
			sink += uint64(e.Addr)
		}
		done += n
	}
	_ = sink
}
