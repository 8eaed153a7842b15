package blocking

import (
	"os"
	"path/filepath"
	"testing"

	"llm4em/internal/entity"
)

// benchmarkQueryBuilt measures one bounded Query against an index of
// n records built by build, reporting postings bytes/record so the
// compression benchmarks double as the size measurement
// BENCH_index10m.json records.
func benchmarkQueryBuilt(b *testing.B, n int, build func([]entity.Record) queryIndex) {
	records := syntheticRecords(n)
	ix := build(records)
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = records[(i*37)%n].Serialize()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Query(queries[i%len(queries)], 10, 1.0)
	}
	// After ResetTimer: it clears previously reported custom metrics.
	b.ReportMetric(float64(ix.PostingsBytes())/float64(n), "postings-B/record")
}

// The production index against the test-side raw postings baseline at
// 100k records — the pair the bench_regression.sh size/speed gate
// compares.
func BenchmarkIndexQueryCompressed100k(b *testing.B) {
	benchmarkQueryBuilt(b, 100000, func(r []entity.Record) queryIndex { return BuildIndex(r, IndexOptions{}) })
}

func BenchmarkIndexQueryRaw100k(b *testing.B) {
	benchmarkQueryBuilt(b, 100000, func(r []entity.Record) queryIndex { return buildRawIndex(r, IndexOptions{}) })
}

// BenchmarkSnapshotWrite measures writing the mmap snapshot of a
// 100k-record index.
func BenchmarkSnapshotWrite(b *testing.B) {
	records := syntheticRecords(100000)
	ix := BuildIndex(records, IndexOptions{})
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, "bench.emx")
		if err := ix.WriteSnapshot(path); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.Remove(path)
		b.StartTimer()
	}
}

// BenchmarkOpenMapped measures the restart path: opening a written
// snapshot into a serving index. The header walk plus one token-table
// sweep is what turns a 10M-record restart from an ingest replay into
// a page-cache mmap.
func BenchmarkOpenMapped(b *testing.B) {
	records := syntheticRecords(100000)
	ix := BuildIndex(records, IndexOptions{})
	path := filepath.Join(b.TempDir(), "bench.emx")
	if err := ix.WriteSnapshot(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path, IndexOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
