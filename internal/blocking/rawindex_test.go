package blocking

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// queryIndex is what the benchmarks and differential tests need of an
// index; *Index and the raw baseline both provide it.
type queryIndex interface {
	Query(text string, maxCandidates int, minScore float64) []Candidate
	PostingsBytes() int
}

// rawIndex is the pre-compression postings format, kept in tests as
// the benchmark baseline and a second exhaustive oracle: one raw
// ascending []int32 position slice per interned token ID, 4 bytes per
// posting. It builds and queries the way the production index's
// exhaustive path did over that format — same interning, cached IDF
// weights, pooled flat accumulator (sparse above denseScoreRecords)
// and top-K heap — so BenchmarkIndexQueryRaw100k prices the compressed
// index against the raw representation, not against a slower oracle.
type rawIndex struct {
	stopFrac float64
	vocab    *tokenize.Vocab
	n        int
	posts    [][]int32
	idfBits  []uint64
	idfAtN   []uint64
	addIDs   []uint32
	scratch  sync.Pool
}

// buildRawIndex builds the raw baseline over the records; only
// opts.StopDocFrac applies, resolved as BuildIndex resolves it.
func buildRawIndex(records []entity.Record, opts IndexOptions) *rawIndex {
	rx := &rawIndex{stopFrac: opts.stopDocFrac(), vocab: tokenize.NewVocab()}
	rx.scratch.New = func() any { return &queryScratch{} }
	for _, r := range records {
		rx.add(r)
	}
	return rx
}

func (rx *rawIndex) add(r entity.Record) {
	pos := int32(rx.n)
	rx.n++
	ids := rx.vocab.AppendIDs(rx.addIDs[:0], r.Serialize())
	for len(rx.posts) < rx.vocab.Len() {
		rx.posts = append(rx.posts, nil)
		rx.idfBits = append(rx.idfBits, 0)
		rx.idfAtN = append(rx.idfAtN, 0)
	}
	for i, id := range ids {
		dup := false
		for _, prev := range ids[:i] {
			if prev == id {
				dup = true
				break
			}
		}
		if !dup {
			rx.posts[id] = append(rx.posts[id], pos)
		}
	}
	rx.addIDs = ids[:0]
}

// PostingsBytes is the raw int32 footprint of the postings.
func (rx *rawIndex) PostingsBytes() int {
	total := 0
	for _, p := range rx.posts {
		total += 4 * len(p)
	}
	return total
}

func (rx *rawIndex) idfWeight(id uint32, n, df int) float64 {
	if atomic.LoadUint64(&rx.idfAtN[id]) == uint64(n) {
		return math.Float64frombits(atomic.LoadUint64(&rx.idfBits[id]))
	}
	w := math.Log(1 + float64(n)/float64(df))
	atomic.StoreUint64(&rx.idfBits[id], math.Float64bits(w))
	atomic.StoreUint64(&rx.idfAtN[id], uint64(n))
	return w
}

// Query has Index.Query's contract and ranking.
func (rx *rawIndex) Query(text string, maxCandidates int, minScore float64) []Candidate {
	if rx.n == 0 {
		return nil
	}
	sc := rx.scratch.Get().(*queryScratch)
	sc.ids, sc.buf = rx.vocab.AppendKnownIDs(sc.ids[:0], sc.buf, text)
	out := rx.queryIDs(sc, maxCandidates, minScore)
	rx.scratch.Put(sc)
	return out
}

func (rx *rawIndex) queryIDs(sc *queryScratch, maxCandidates int, minScore float64) []Candidate {
	n := rx.n
	nf := float64(n)
	terms := sc.terms[:0]
	ids := sc.ids
	for i, id := range ids {
		dup := false
		for _, prev := range ids[:i] {
			if prev == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		df := len(rx.posts[id])
		if df == 0 {
			continue
		}
		if float64(df)/nf > rx.stopFrac && df >= stopMinDocs {
			continue
		}
		terms = append(terms, scoreTerm{id: id, df: int32(df)})
	}
	sc.terms = terms

	if n > denseScoreRecords {
		return rx.querySparse(sc, maxCandidates, minScore)
	}

	if len(sc.scores) < n {
		sc.scores = append(sc.scores, make([]float64, n-len(sc.scores))...)
		sc.epoch = append(sc.epoch, make([]uint32, n-len(sc.epoch))...)
	}
	sc.cur++
	if sc.cur == 0 {
		clear(sc.epoch)
		sc.cur = 1
	}
	touched := sc.touched[:0]
	for _, t := range terms {
		w := rx.idfWeight(t.id, n, int(t.df))
		for _, pos := range rx.posts[t.id] {
			if sc.epoch[pos] != sc.cur {
				sc.epoch[pos] = sc.cur
				sc.scores[pos] = w
				touched = append(touched, pos)
			} else {
				sc.scores[pos] += w
			}
		}
	}
	sc.touched = touched

	if maxCandidates <= 0 {
		out := make([]Candidate, 0, len(touched))
		for _, pos := range touched {
			if s := sc.scores[pos]; s >= minScore {
				out = append(out, Candidate{Pos: int(pos), Score: s})
			}
		}
		sort.Slice(out, func(i, j int) bool { return candidateBefore(out[i], out[j]) })
		return out
	}
	h := sc.heap[:0]
	for _, pos := range touched {
		if s := sc.scores[pos]; s >= minScore {
			h = PushBounded(h, maxCandidates, Candidate{Pos: int(pos), Score: s}, candidateBefore)
		}
	}
	return finishTopK(sc, h)
}

// querySparse is the exhaustive scan over a map accumulator, taken on
// collections too large to pool the flat arrays for.
func (rx *rawIndex) querySparse(sc *queryScratch, maxCandidates int, minScore float64) []Candidate {
	if sc.sparse == nil {
		sc.sparse = make(map[int32]float64)
	} else {
		clear(sc.sparse)
	}
	acc := sc.sparse
	for _, t := range sc.terms {
		w := rx.idfWeight(t.id, rx.n, int(t.df))
		for _, pos := range rx.posts[t.id] {
			acc[pos] += w
		}
	}
	if maxCandidates <= 0 {
		out := make([]Candidate, 0, len(acc))
		for pos, s := range acc {
			if s >= minScore {
				out = append(out, Candidate{Pos: int(pos), Score: s})
			}
		}
		sort.Slice(out, func(i, j int) bool { return candidateBefore(out[i], out[j]) })
		return out
	}
	h := sc.heap[:0]
	for pos, s := range acc {
		if s >= minScore {
			h = PushBounded(h, maxCandidates, Candidate{Pos: int(pos), Score: s}, candidateBefore)
		}
	}
	return finishTopK(sc, h)
}

// finishTopK hands the heap buffer back to the scratch and returns the
// kept candidates in rank order.
func finishTopK(sc *queryScratch, h []Candidate) []Candidate {
	sc.heap = h[:0]
	if len(h) == 0 {
		return nil
	}
	SortTopK(h, candidateBefore)
	out := make([]Candidate, len(h))
	copy(out, h)
	return out
}
