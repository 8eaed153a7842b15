package blocking

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// referenceQuery is the pre-interning Index.Query implementation —
// string-keyed postings rebuilt per call, map scratch, full sort —
// kept as the semantic oracle for the hot-path rewrite. It must
// produce byte-identical rankings (order and float64 scores) to
// Index.Query on any input.
func referenceQuery(records []entity.Record, stopFrac float64, text string, maxCandidates int, minScore float64) []Candidate {
	stopFrac = math.Max(stopFrac, 0)
	postings := map[string][]int{}
	for pos, r := range records {
		seen := map[string]bool{}
		for _, t := range tokenize.Words(r.Serialize()) {
			if !seen[t] {
				postings[t] = append(postings[t], pos)
				seen[t] = true
			}
		}
	}
	n := float64(len(records))
	scores := map[int]float64{}
	seen := map[string]bool{}
	for _, t := range tokenize.Words(text) {
		if seen[t] {
			continue
		}
		seen[t] = true
		post := postings[t]
		df := float64(len(post))
		if df == 0 {
			continue
		}
		if df/n > stopFrac && df >= stopMinDocs {
			continue
		}
		w := math.Log(1 + n/df)
		for _, pos := range post {
			scores[pos] += w
		}
	}
	cands := make([]Candidate, 0, len(scores))
	for pos, sc := range scores {
		if sc >= minScore {
			cands = append(cands, Candidate{Pos: pos, Score: sc})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Pos < cands[j].Pos
	})
	if maxCandidates > 0 && len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands
}

// randomRecords generates a collection with deliberate score ties:
// few distinct tokens, many records sharing exact token sets, so the
// top-K heap's tie-breaking is exercised hard.
func randomRecords(rng *detrand.RNG, n int) []entity.Record {
	pool := []string{"sony", "canon", "camera", "printer", "pro", "x100", "x200", "dock", "kit", "blue"}
	recs := make([]entity.Record, n)
	for i := range recs {
		k := 1 + rng.Intn(4)
		title := ""
		for w := 0; w < k; w++ {
			if w > 0 {
				title += " "
			}
			title += pool[rng.Intn(len(pool))]
		}
		recs[i] = entity.Record{
			ID:    fmt.Sprintf("r%03d", i),
			Attrs: []entity.Attr{{Name: "title", Value: title}},
		}
	}
	return recs
}

// TestQueryMatchesReference is the differential test of the hot-path
// rewrite: interned-ID postings + cached IDF + epoch scratch + top-K
// heap must rank byte-identically (order AND scores, including ties)
// to the old map-and-sort implementation, across randomized
// workloads, stop-token settings, bounds and score floors.
func TestQueryMatchesReference(t *testing.T) {
	rng := detrand.New("hotpath-differential")
	for round := 0; round < 20; round++ {
		n := 5 + rng.Intn(60)
		recs := randomRecords(rng, n)
		stopFrac := []float64{0, 0.2, 0.5, 1}[rng.Intn(4)]
		ix := BuildIndex(recs, IndexOptions{StopDocFrac: Float(stopFrac)})
		for q := 0; q < 15; q++ {
			var text string
			if rng.Intn(3) == 0 {
				text = "unknown tokens only zzz"
			} else {
				text = recs[rng.Intn(n)].Serialize() + " " + recs[rng.Intn(n)].Serialize()
			}
			maxCandidates := []int{0, 1, 3, 10, 1000}[rng.Intn(5)]
			minScore := []float64{0, 0.5, 1.0}[rng.Intn(3)]
			got := ix.Query(text, maxCandidates, minScore)
			want := referenceQuery(recs, stopFrac, text, maxCandidates, minScore)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query %q (max=%d min=%v stop=%v):\n got %v\nwant %v",
					round, text, maxCandidates, minScore, stopFrac, got, want)
			}
		}
	}
}

// TestQueryTokensMatchesQuery: the pre-split fanout entry point must
// be exactly Query over the same text.
func TestQueryTokensMatchesQuery(t *testing.T) {
	rng := detrand.New("hotpath-tokens")
	recs := randomRecords(rng, 40)
	ix := BuildIndex(recs, IndexOptions{})
	for q := 0; q < 25; q++ {
		text := recs[rng.Intn(len(recs))].Serialize() + " Extra-Words x100"
		got := ix.QueryTokens(tokenize.Words(text), 5, 0)
		want := ix.Query(text, 5, 0)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: QueryTokens %v != Query %v", text, got, want)
		}
	}
}

// TestIndexQueryEmpty pins the n==0 guard: querying an empty index —
// or one emptied of matching tokens — returns nil instead of relying
// on every downstream loop tolerating the degenerate state.
func TestIndexQueryEmpty(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{})
	if got := ix.Query("sony camera", 10, 0); got != nil {
		t.Fatalf("empty-index Query = %v, want nil", got)
	}
	if got := ix.QueryTokens([]string{"sony"}, 10, 0); got != nil {
		t.Fatalf("empty-index QueryTokens = %v, want nil", got)
	}
	// The guard is about emptiness, not brokenness: the index works
	// normally once the first record arrives.
	ix.Add(rec("a", "sony camera"))
	if got := ix.Query("sony camera", 10, 0); len(got) != 1 || got[0].Pos != 0 {
		t.Fatalf("post-Add Query = %v, want the added record", got)
	}
	if got := ix.QueryTokens(nil, 10, 0); got != nil {
		t.Fatalf("nil-token query = %v, want nil", got)
	}
}

// TestAddSerializedMatchesAdd pins that handing a precomputed
// serialization to the index is exactly Add.
func TestAddSerializedMatchesAdd(t *testing.T) {
	r := rec("a", "sony camera x100")
	viaAdd := BuildIndex(nil, IndexOptions{})
	viaAdd.Add(r)
	viaText := BuildIndex(nil, IndexOptions{})
	viaText.AddSerialized(r, r.Serialize())
	a := viaAdd.Query("sony camera x100", 0, 0)
	b := viaText.Query("sony camera x100", 0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("AddSerialized diverges from Add: %v vs %v", a, b)
	}
}

// TestQueryAllocBudget pins Query's allocation budget: with a warm
// scratch pool, a bounded query allocates only its result slice. The
// pre-rewrite implementation used 14 allocations on this workload; a
// budget of 2 leaves room for a pool miss without masking a
// regression back to per-token or per-map allocation.
func TestQueryAllocBudget(t *testing.T) {
	rng := detrand.New("hotpath-allocs")
	recs := randomRecords(rng, 200)
	ix := BuildIndex(recs, IndexOptions{})
	text := recs[7].Serialize()
	ix.Query(text, 5, 0) // warm the scratch pool
	avg := testing.AllocsPerRun(200, func() {
		ix.Query(text, 5, 0)
	})
	if avg > 2 {
		t.Fatalf("Query allocates %.1f times per call, budget 2", avg)
	}
}

// TestQuerySparseMatchesDense forces the sparse accumulator (the
// large-collection exhaustive path, normally gated behind
// denseScoreRecords) and pins it byte-identical to the reference
// oracle across every storage mode: fresh, mmap-snapshot-backed and
// the test-side raw baseline, with bounded, unbounded, floored and
// tie-heavy workloads. The WAND cutover is pushed out of reach so
// bounded queries take the sparse scan too.
func TestQuerySparseMatchesDense(t *testing.T) {
	oldDense, oldWAND := denseScoreRecords, wandMinPostings
	denseScoreRecords = 1         // every query takes the sparse path
	wandMinPostings = math.MaxInt // ... bounded ones included
	defer func() { denseScoreRecords, wandMinPostings = oldDense, oldWAND }()

	rng := detrand.New("sparse-differential")
	for round := 0; round < 10; round++ {
		n := 5 + rng.Intn(120)
		recs := randomRecords(rng, n)
		stopFrac := []float64{0, 0.2, 0.5, 1}[rng.Intn(4)]
		opts := IndexOptions{StopDocFrac: Float(stopFrac)}
		fresh := BuildIndex(recs, opts)
		raw := buildRawIndex(recs, opts)
		path := filepath.Join(t.TempDir(), "sparse.emx")
		if err := fresh.WriteSnapshot(path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMapped(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			var text string
			if rng.Intn(3) == 0 {
				text = "unknown tokens only zzz"
			} else {
				text = recs[rng.Intn(n)].Serialize() + " " + recs[rng.Intn(n)].Serialize()
			}
			maxCandidates := []int{0, 1, 3, 10, 1000}[rng.Intn(5)]
			minScore := []float64{0, 0.5, 1.0}[rng.Intn(3)]
			want := referenceQuery(recs, stopFrac, text, maxCandidates, minScore)
			for label, ix := range map[string]queryIndex{"fresh": fresh, "raw": raw, "mapped": mapped} {
				got := ix.Query(text, maxCandidates, minScore)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d %s query %q (max=%d min=%v stop=%v):\n got %v\nwant %v",
						round, label, text, maxCandidates, minScore, stopFrac, got, want)
				}
			}
		}
		mapped.Close()
	}
}
