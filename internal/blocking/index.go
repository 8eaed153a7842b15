package blocking

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"llm4em/internal/entity"
	"llm4em/internal/telemetry"
	"llm4em/internal/tokenize"
)

// Index is an inverted IDF token index over a record collection:
// build it (or grow it with Add) once and query it many times.
// TokenBlocker routes Candidates through a throwaway Index; long-lived
// callers — the online resolution store, repeated blocking runs over a
// stable collection — keep the Index and amortize construction.
//
// Internally the index is built for the serving hot path: token
// strings are interned into dense uint32 IDs (tokenize.Vocab), the
// postings are delta+varint compressed streams over those IDs
// (postings.go) with sealed-block skip metadata, per-token IDF weights
// are cached between queries, and bounded results come from top-K heap
// selection. Bounded queries over enough postings run
// document-at-a-time with WAND pruning (wand.go), skipping posting
// blocks that cannot reach the heap floor; short and unbounded queries
// scan term-at-a-time, over a pooled flat scratch on small collections
// and a sparse accumulator on large ones (denseScoreRecords). Query
// and QueryTokens allocate only the returned slice.
//
// An Index comes in two storage modes. A fresh index (BuildIndex)
// holds everything on the heap. A mapped index (OpenMapped) serves
// postings, token table and records straight out of an mmap'ed
// snapshot file (snapshot.go) and overlays post-open Adds as heap
// extensions chained onto the mapped streams — reopening at 10M
// records costs milliseconds, not an ingest replay.
//
// Token weights are derived from document frequencies at query time
// (IDF = log(1 + n/df)), so an Index stays correct as records are
// added: a token that was rare can become a stop token later without
// any rebuild. Stop tokens — tokens occurring in more than StopFrac of
// the records and in at least stopMinDocs of them — are skipped when
// scoring, mirroring the build-time filter the TokenBlocker previously
// applied.
//
// An Index is not safe for concurrent mutation; guard Add against
// concurrent Query with a lock (internal/resolve shards do).
// Concurrent Queries are safe with each other.
type Index struct {
	stopFrac float64
	vocab    *tokenize.Vocab
	// snap is the mmap'ed base of an OpenMapped index; nil for a fresh
	// one. When set, vocab holds only tokens first seen after the open,
	// their IDs offset by snap.nTokens, and records holds only records
	// added after it, their positions offset by snap.nRecords.
	snap    *mappedIndex
	records []entity.Record
	// Exactly one postings container is active. posts (fresh) is
	// dense by token ID; overlay (mapped) is sparse because
	// post-restart Adds touch few of the snapshot's tokens.
	posts   []postingList
	overlay map[uint32]*postingList
	// idfBits/idfAtN cache math.Float64bits of each token's IDF weight
	// and the record count n it was computed at. Queries fill the
	// cache through atomics: concurrent fillers write identical values
	// (n and df are fixed while queries run), so the worst case is a
	// redundant Log, never a torn or stale read — a reader only trusts
	// idfBits after observing the matching idfAtN. On a mapped index
	// the slices are allocated zeroed at open (zeroed pages, not a
	// replayed computation): IDF materializes lazily per token on first
	// use, as the snapshot stores none.
	idfBits []uint64
	idfAtN  []uint64
	// addIDs/addBuf are the tokenization scratch of Add (mutation path,
	// so single shared buffers are safe).
	addIDs []uint32
	addBuf []byte
	// scratch pools per-query state so concurrent queries do not
	// contend and repeated ones do not allocate.
	scratch sync.Pool
	// met instruments the query hot path; the zero value is disabled.
	// Per-query work is counted into locals and flushed with one
	// atomic add per counter at the end of the query.
	met telemetry.BlockingMetrics
}

// SetMetrics wires telemetry instruments into the index. Call before
// the index serves concurrent queries (the resolve store does, at
// construction).
func (ix *Index) SetMetrics(m telemetry.BlockingMetrics) { ix.met = m }

// stopMinDocs is the absolute document-frequency floor below which a
// token is never treated as a stop token, so tiny collections keep
// their vocabulary.
const stopMinDocs = 5

// queryScratch is the reusable per-query state: token IDs, the flat
// score accumulator with its epoch marks (term-at-a-time path), the
// touched-position list, the top-K heap, and the cursor set of the
// document-at-a-time path.
type queryScratch struct {
	ids     []uint32
	buf     []byte
	scan    tokenize.Scanner
	terms   []scoreTerm
	scores  []float64
	epoch   []uint32
	cur     uint32
	touched []int32
	heap    []Candidate
	cursor  plCursor
	cursors []plCursor
	weights []float64
	order   []int32
	// sparse replaces the flat scores/epoch accumulator on collections
	// larger than denseScoreRecords: the flat arrays cost 12 bytes per
	// indexed record and live on in the pool after the query, which at
	// 10M records would retain ~120MB per pooled scratch — multiplied
	// by concurrent queries. The map's retained size tracks the
	// documents one query touches instead.
	sparse map[int32]float64
}

// scoreTerm is one deduplicated, stop-filtered query token with its
// document frequency — the shared input of both scoring paths.
type scoreTerm struct {
	id uint32
	df int32
}

// BuildIndex builds an index over the records with the given options
// (the zero IndexOptions selects all defaults). To serve an index out
// of an mmap'ed snapshot instead of rebuilding, see OpenMapped.
func BuildIndex(records []entity.Record, opts IndexOptions) *Index {
	ix := &Index{
		stopFrac: opts.stopDocFrac(),
		vocab:    tokenize.NewVocab(),
		records:  make([]entity.Record, 0, len(records)),
	}
	ix.scratch.New = func() any { return &queryScratch{} }
	for _, r := range records {
		ix.Add(r)
	}
	return ix
}

// snapTokens returns the number of token IDs owned by the mapped base.
func (ix *Index) snapTokens() uint32 {
	if ix.snap == nil {
		return 0
	}
	return ix.snap.nTokens
}

// snapRecords returns the number of record positions owned by the
// mapped base.
func (ix *Index) snapRecords() int {
	if ix.snap == nil {
		return 0
	}
	return int(ix.snap.nRecords)
}

// Add appends one record to the index and returns its position.
func (ix *Index) Add(r entity.Record) int {
	return ix.AddSerialized(r, r.Serialize())
}

// AddSerialized appends a record whose serialized text the caller
// already computed (it must equal r.Serialize()), sparing the index a
// re-serialization — the resolve store serializes once per record for
// its feature-extraction cache and hands the same text here.
func (ix *Index) AddSerialized(r entity.Record, text string) int {
	pos := ix.Len()
	ix.records = append(ix.records, r)
	var ids []uint32
	if ix.snap == nil {
		ids = ix.vocab.AppendIDs(ix.addIDs[:0], text)
	} else {
		ids = ix.appendInternIDs(ix.addIDs[:0], text)
	}
	ix.growTokens()
	// First occurrence per record only: df counts documents.
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
		if ix.snap == nil {
			ix.posts[id].add(int32(pos), -1)
			continue
		}
		pl := ix.overlay[id]
		if pl == nil {
			pl = &postingList{}
			ix.overlay[id] = pl
		}
		pl.add(int32(pos), ix.overlayBase(id))
	}
	ix.addIDs = ids[:0]
	return pos
}

// appendInternIDs tokenizes text for the mapped-index Add path:
// tokens already in the snapshot's table keep their mapped ID, new
// ones are interned into the live vocab with IDs offset past the
// snapshot's.
func (ix *Index) appendInternIDs(dst []uint32, text string) []uint32 {
	var sc tokenize.Scanner
	sc.Reset(text, ix.addBuf)
	for {
		tok, ok := sc.Next()
		if !ok {
			break
		}
		if id, ok := ix.snap.lookup(tok); ok {
			dst = append(dst, id)
			continue
		}
		dst = append(dst, ix.snap.nTokens+ix.vocab.IDBytes(tok))
	}
	ix.addBuf = sc.Buf()
	return dst
}

// growTokens sizes the per-token parallel slices to the current token
// count (mapped base + live vocab).
func (ix *Index) growTokens() {
	n := int(ix.snapTokens()) + ix.vocab.Len()
	for len(ix.idfBits) < n {
		ix.idfBits = append(ix.idfBits, 0)
		ix.idfAtN = append(ix.idfAtN, 0)
	}
	if ix.snap == nil {
		for len(ix.posts) < n {
			ix.posts = append(ix.posts, postingList{})
		}
	}
}

// tokenDF returns the document frequency of a token across the mapped
// base and the live overlay.
func (ix *Index) tokenDF(id uint32) int {
	if ix.snap == nil {
		return int(ix.posts[id].df)
	}
	df := 0
	if id < ix.snap.nTokens {
		df = int(ix.snap.tokenDF(id))
	}
	if pl := ix.overlay[id]; pl != nil {
		df += int(pl.df)
	}
	return df
}

// overlayBase returns the delta base for the live extension of a
// token: the mapped segment's last position, or -1 when the token has
// no mapped postings.
func (ix *Index) overlayBase(id uint32) int32 {
	if id < ix.snap.nTokens && ix.snap.tokenDF(id) > 0 {
		return ix.snap.tokenLastPos(id)
	}
	return -1
}

// initCursor points a cursor at the (up to two) posting segments of a
// token. Callers only construct cursors for tokens with df > 0.
func (ix *Index) initCursor(c *plCursor, id uint32) {
	var segs [2]segView
	n := 0
	if ix.snap != nil {
		if id < ix.snap.nTokens && ix.snap.tokenDF(id) > 0 {
			segs[n] = ix.snap.tokenSeg(id)
			n++
		}
		if pl := ix.overlay[id]; pl != nil && pl.df > 0 {
			segs[n] = liveSeg(pl, ix.overlayBase(id))
			n++
		}
	} else if pl := &ix.posts[id]; pl.df > 0 {
		segs[n] = liveSeg(pl, -1)
		n++
	}
	c.reset(segs, n)
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return ix.snapRecords() + len(ix.records) }

// Record returns the record at an index position. On a mapped index,
// positions below the snapshot's record count decode from the map per
// call — bounded queries surface only the top K, so callers touch a
// handful per query.
func (ix *Index) Record(pos int) entity.Record {
	s := ix.snapRecords()
	if pos < s {
		return ix.snap.record(pos)
	}
	return ix.records[pos-s]
}

// Candidate is one query result: an index position and its summed IDF
// overlap score.
type Candidate struct {
	Pos   int
	Score float64
}

// Query scores the indexed records against the text by IDF-weighted
// token overlap and returns candidates with score >= minScore, ranked
// by decreasing score (ties broken by position). maxCandidates bounds
// the result; zero or negative means unbounded.
func (ix *Index) Query(text string, maxCandidates int, minScore float64) []Candidate {
	if ix.Len() == 0 {
		return nil
	}
	sc := ix.scratch.Get().(*queryScratch)
	if ix.snap == nil {
		sc.ids, sc.buf = ix.vocab.AppendKnownIDs(sc.ids[:0], sc.buf, text)
	} else {
		ix.appendKnownIDsMapped(sc, text)
	}
	out := ix.queryIDs(sc, maxCandidates, minScore)
	ix.scratch.Put(sc)
	return out
}

// appendKnownIDsMapped resolves the tokens of text against the mapped
// token table first, then the live vocab, into sc.ids. Unknown tokens
// are skipped (zero document frequency). Read-only on the index.
func (ix *Index) appendKnownIDsMapped(sc *queryScratch, text string) {
	sc.ids = sc.ids[:0]
	sc.scan.Reset(text, sc.buf)
	for {
		tok, ok := sc.scan.Next()
		if !ok {
			break
		}
		if id, ok := ix.snap.lookup(tok); ok {
			sc.ids = append(sc.ids, id)
			continue
		}
		if id, ok := ix.vocab.LookupBytes(tok); ok {
			sc.ids = append(sc.ids, ix.snap.nTokens+id)
		}
	}
	sc.buf = sc.scan.Buf()
}

// QueryTokens is Query over pre-split tokens (as produced by
// tokenize.Words): callers resolving one text against many indexes —
// the sharded store — tokenize once and fan the tokens out. Duplicate
// tokens are ignored, exactly as Query ignores repeated words.
func (ix *Index) QueryTokens(tokens []string, maxCandidates int, minScore float64) []Candidate {
	if ix.Len() == 0 || len(tokens) == 0 {
		return nil
	}
	sc := ix.scratch.Get().(*queryScratch)
	if ix.snap == nil {
		sc.ids = ix.vocab.AppendKnownTokenIDs(sc.ids[:0], tokens)
	} else {
		sc.ids = sc.ids[:0]
		for _, t := range tokens {
			if id, ok := ix.snap.lookupString(t); ok {
				sc.ids = append(sc.ids, id)
				continue
			}
			if id, ok := ix.vocab.Lookup(t); ok {
				sc.ids = append(sc.ids, ix.snap.nTokens+id)
			}
		}
	}
	out := ix.queryIDs(sc, maxCandidates, minScore)
	ix.scratch.Put(sc)
	return out
}

// wandMinPostings is the scoring-postings volume below which a bounded
// query skips the WAND machinery: cursor setup, per-round sorting and
// heap bookkeeping carry a fixed cost that only pruning large posting
// lists can repay, while the flat accumulator scans a few hundred
// postings in the same time. Both paths rank identically, so the
// cutover is purely a cost decision. A variable only so the
// differential tests can force the exhaustive scan on bounded queries.
var wandMinPostings = 4 * postingBlock

// wandThreshold is the cutover volume for a bounded query: the fixed
// floor, or a multiple of the requested K when that is larger (a big K
// keeps the heap floor low, so pruning starts paying later).
func wandThreshold(maxCandidates int) int {
	if t := 8 * maxCandidates; t > wandMinPostings {
		return t
	}
	return wandMinPostings
}

// queryIDs scores the postings of sc.ids and selects the ranked
// result. Read-only on the index, so concurrent queries are safe; sc
// is owned by this call. The filtering pass below feeds every scorer:
// bounded queries with enough scoring postings (wandThreshold) take
// the document-at-a-time WAND path; everything else scans
// term-at-a-time — into the flat accumulator, or into the sparse one
// when the collection is too large to pool flat arrays for
// (denseScoreRecords). All paths produce byte-identical rankings
// (scores are summed in the same token order), which the differential
// tests pin.
func (ix *Index) queryIDs(sc *queryScratch, maxCandidates int, minScore float64) []Candidate {
	n := ix.Len()
	nf := float64(n)

	// One filtering pass shared by both scorers: deduplicate the query
	// tokens, drop unknown and stop tokens (frequent both relatively
	// and absolutely, so tiny collections keep their vocabulary), and
	// total the scoring postings — the volume the WAND cutover weighs.
	terms := sc.terms[:0]
	var stopSkipped uint64
	total := 0
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
		df := ix.tokenDF(id)
		if df == 0 {
			continue
		}
		if float64(df)/nf > ix.stopFrac && df >= stopMinDocs {
			stopSkipped++
			continue
		}
		terms = append(terms, scoreTerm{id: id, df: int32(df)})
		total += df
	}
	sc.terms = terms

	if maxCandidates > 0 && total >= wandThreshold(maxCandidates) {
		return ix.queryWAND(sc, maxCandidates, minScore, stopSkipped)
	}

	if n > denseScoreRecords {
		return ix.querySparse(sc, maxCandidates, minScore, stopSkipped)
	}

	if len(sc.scores) < n {
		sc.scores = append(sc.scores, make([]float64, n-len(sc.scores))...)
		sc.epoch = append(sc.epoch, make([]uint32, n-len(sc.epoch))...)
	}
	sc.cur++
	if sc.cur == 0 { // epoch wrap: stale marks would alias
		clear(sc.epoch)
		sc.cur = 1
	}
	touched := sc.touched[:0]

	// Hot-path accounting stays in registers until the single flush
	// below — enabled telemetry costs integer adds, never atomics in
	// the scoring loop.
	var scanned, heapPushes uint64

	for _, t := range terms {
		id, df := t.id, int(t.df)
		scanned += uint64(df)
		w := ix.idfWeight(id, n, df)
		if ix.snap == nil {
			// Live list: one heap segment, decoded inline — the cursor's
			// segment/block state machine costs more than these few
			// additions for typical short lists.
			pl := &ix.posts[id]
			pos, off := int32(-1), 0
			for k := int32(0); k < pl.df; k++ {
				d, m := uvarint(pl.stream, off)
				off += m
				pos += int32(d)
				if sc.epoch[pos] != sc.cur {
					sc.epoch[pos] = sc.cur
					sc.scores[pos] = w
					touched = append(touched, pos)
				} else {
					sc.scores[pos] += w
				}
			}
			continue
		}
		c := &sc.cursor
		ix.initCursor(c, id)
		for c.next() {
			pos := c.cur
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
		// Unbounded: collect everything above the floor and sort. Not
		// the serving path — bounded queries go through the heap.
		ix.met.Queries.Inc()
		ix.met.PostingsScanned.Add(scanned)
		ix.met.StopTokensSkipped.Add(stopSkipped)
		out := make([]Candidate, 0, len(touched))
		for _, pos := range touched {
			if s := sc.scores[pos]; s >= minScore {
				out = append(out, Candidate{Pos: int(pos), Score: s})
			}
		}
		sort.Slice(out, func(i, j int) bool { return candidateBefore(out[i], out[j]) })
		return out
	}

	// Bounded: keep the top K in a min-heap rooted at the worst kept
	// candidate, then sort the heap into rank order. Same total order
	// as the sort above — score descending, position ascending on
	// ties — so the result is byte-identical to sort-then-truncate.
	h := sc.heap[:0]
	for _, pos := range touched {
		s := sc.scores[pos]
		if s < minScore {
			continue
		}
		heapPushes++
		h = PushBounded(h, maxCandidates, Candidate{Pos: int(pos), Score: s}, candidateBefore)
	}
	sc.heap = h[:0]
	ix.met.Queries.Inc()
	ix.met.PostingsScanned.Add(scanned)
	ix.met.StopTokensSkipped.Add(stopSkipped)
	ix.met.HeapPushes.Add(heapPushes)
	if len(h) == 0 {
		return nil
	}
	SortTopK(h, candidateBefore)
	out := make([]Candidate, len(h))
	copy(out, h)
	return out
}

// denseScoreRecords is the record count above which the exhaustive
// scan accumulates into the sparse map instead of the flat
// scores/epoch arrays. Below it the arrays cost at most ~3MB per
// pooled scratch — cheap and branch-free on the hot path; above it
// their footprint grows with the collection (12 bytes per record,
// ~120MB at the 10M target) and is retained by the scratch pool for
// the life of the process, so one rare-token or unbounded query per
// pooled scratch would pin gigabytes across concurrent queries. A
// variable only so the differential tests can force the sparse path
// on small collections.
var denseScoreRecords = 1 << 18

// querySparse is the exhaustive term-at-a-time scorer over a hash-map
// accumulator, taken when the flat accumulator would be too large to
// pool (see denseScoreRecords). Ranking is byte-identical to the flat
// path and to WAND: each document's weights are summed in the same
// deduplicated token order (map insertion order never affects a sum),
// and both the bounded heap and the unbounded sort select by the
// strict total order candidateBefore, so the map's iteration order
// cannot leak into the result.
func (ix *Index) querySparse(sc *queryScratch, maxCandidates int, minScore float64, stopSkipped uint64) []Candidate {
	n := ix.Len()
	if sc.sparse == nil {
		sc.sparse = make(map[int32]float64)
	} else {
		clear(sc.sparse)
	}
	acc := sc.sparse
	var scanned, heapPushes uint64
	for _, t := range sc.terms {
		id, df := t.id, int(t.df)
		scanned += uint64(df)
		w := ix.idfWeight(id, n, df)
		if ix.snap == nil {
			pl := &ix.posts[id]
			pos, off := int32(-1), 0
			for k := int32(0); k < pl.df; k++ {
				d, m := uvarint(pl.stream, off)
				off += m
				pos += int32(d)
				acc[pos] += w
			}
			continue
		}
		c := &sc.cursor
		ix.initCursor(c, id)
		for c.next() {
			acc[c.cur] += w
		}
	}

	if maxCandidates <= 0 {
		ix.met.Queries.Inc()
		ix.met.PostingsScanned.Add(scanned)
		ix.met.StopTokensSkipped.Add(stopSkipped)
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
		if s < minScore {
			continue
		}
		heapPushes++
		h = PushBounded(h, maxCandidates, Candidate{Pos: int(pos), Score: s}, candidateBefore)
	}
	sc.heap = h[:0]
	ix.met.Queries.Inc()
	ix.met.PostingsScanned.Add(scanned)
	ix.met.StopTokensSkipped.Add(stopSkipped)
	ix.met.HeapPushes.Add(heapPushes)
	if len(h) == 0 {
		return nil
	}
	SortTopK(h, candidateBefore)
	out := make([]Candidate, len(h))
	copy(out, h)
	return out
}

// idfWeight returns log(1 + n/df) for a token, serving it from the
// per-token cache when it was computed at the same record count.
func (ix *Index) idfWeight(id uint32, n, df int) float64 {
	if atomic.LoadUint64(&ix.idfAtN[id]) == uint64(n) {
		return math.Float64frombits(atomic.LoadUint64(&ix.idfBits[id]))
	}
	w := math.Log(1 + float64(n)/float64(df))
	// Bits first, count second: a reader that sees the matching count
	// is guaranteed to read these (identical) bits or newer.
	atomic.StoreUint64(&ix.idfBits[id], math.Float64bits(w))
	atomic.StoreUint64(&ix.idfAtN[id], uint64(n))
	return w
}

// candidateBefore is the ranking order: score descending, ties broken
// by ascending position.
func candidateBefore(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Pos < b.Pos
}
