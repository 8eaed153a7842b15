package blocking

import (
	"fmt"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/detrand"
	"llm4em/internal/entity"
)

// BenchmarkDedup measures candidate generation over a dirty
// collection.
func BenchmarkDedup(b *testing.B) {
	ds := datasets.MustLoad("wdc")
	var recs []entity.Record
	seen := map[string]bool{}
	for _, p := range ds.Test {
		for _, r := range []entity.Record{p.A, p.B} {
			if !seen[r.ID] {
				recs = append(recs, r)
				seen[r.ID] = true
			}
			if len(recs) == 400 {
				break
			}
		}
		if len(recs) == 400 {
			break
		}
	}
	blocker := &TokenBlocker{MaxCandidates: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blocker.Dedup(recs)
	}
}

// syntheticRecords generates a deterministic product-offer-like
// collection: a brand and category word pool shared across records
// (stop-token pressure) plus a rare per-record model token.
func syntheticRecords(n int) []entity.Record {
	brands := []string{"sony", "canon", "epson", "makita"}
	cats := []string{"camera", "printer", "drill", "laptop"}
	adjs := []string{"pro", "compact", "wireless", "digital"}
	rng := detrand.New("blocking-bench")
	recs := make([]entity.Record, n)
	for i := range recs {
		title := fmt.Sprintf("%s %s %s model%04d rev%d",
			brands[rng.Intn(len(brands))],
			adjs[rng.Intn(len(adjs))],
			cats[rng.Intn(len(cats))],
			i/2, // every model token shared by ~2 records
			rng.Intn(3))
		recs[i] = entity.Record{
			ID:    fmt.Sprintf("s%05d", i),
			Attrs: []entity.Attr{{Name: "title", Value: title}},
		}
	}
	return recs
}

// BenchmarkCandidatesRebuild measures the old TokenBlocker path that
// rebuilds the inverted index on every Candidates call: 100 queries
// against 10k records, index rebuilt each iteration.
func BenchmarkCandidatesRebuild(b *testing.B) {
	records := syntheticRecords(10000)
	queries := records[:100]
	blocker := &TokenBlocker{MaxCandidates: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blocker.Candidates(queries, records)
	}
}

// BenchmarkCandidatesIndexReuse measures the same workload through a
// prebuilt Index: 100 queries against 10k records, index built once.
func BenchmarkCandidatesIndexReuse(b *testing.B) {
	records := syntheticRecords(10000)
	queries := records[:100]
	blocker := &TokenBlocker{MaxCandidates: 5}
	ix := BuildIndex(records, IndexOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blocker.CandidatesIndexed(queries, ix)
	}
}

// benchmarkIndexQuery measures one Query call against a prebuilt
// index of n records — the per-request blocking hot path.
func benchmarkIndexQuery(b *testing.B, n int) {
	records := syntheticRecords(n)
	ix := BuildIndex(records, IndexOptions{})
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = records[(i*37)%n].Serialize()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Query(queries[i%len(queries)], 10, 1.0)
	}
}

func BenchmarkIndexQuery10k(b *testing.B)  { benchmarkIndexQuery(b, 10000) }
func BenchmarkIndexQuery100k(b *testing.B) { benchmarkIndexQuery(b, 100000) }

// BenchmarkIndexAdd measures incremental index growth per record.
func BenchmarkIndexAdd(b *testing.B) {
	records := syntheticRecords(10000)
	b.ReportAllocs()
	b.ResetTimer()
	ix := BuildIndex(nil, IndexOptions{})
	for i := 0; i < b.N; i++ {
		ix.Add(records[i%len(records)])
	}
}
