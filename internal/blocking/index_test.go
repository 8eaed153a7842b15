package blocking

import (
	"fmt"
	"reflect"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

// TestCandidatesIndexedMatchesRebuild pins the refactoring invariant:
// blocking through a prebuilt Index returns exactly what the
// rebuild-per-call path returns.
func TestCandidatesIndexedMatchesRebuild(t *testing.T) {
	ds := datasets.MustLoad("wdc")
	var left, right []entity.Record
	for _, p := range ds.Test[:200] {
		left = append(left, p.A)
		right = append(right, p.B)
	}
	b := &TokenBlocker{MaxCandidates: 5}
	ix := BuildIndex(right, IndexOptions{})
	rebuilt := b.Candidates(left, right)
	reused := b.CandidatesIndexed(left, ix)
	if !reflect.DeepEqual(rebuilt, reused) {
		t.Fatalf("indexed blocking diverges from rebuild: %d vs %d pairs", len(rebuilt), len(reused))
	}
	// Querying twice returns the same thing: the index is read-only
	// under Query.
	again := b.CandidatesIndexed(left, ix)
	if !reflect.DeepEqual(reused, again) {
		t.Fatal("repeated queries diverge")
	}
}

// TestIndexIncrementalAddMatchesBatchBuild verifies that growing an
// index record by record is equivalent to building it in one shot.
func TestIndexIncrementalAddMatchesBatchBuild(t *testing.T) {
	var recs []entity.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, rec(fmt.Sprintf("r%02d", i),
			fmt.Sprintf("widget model%d common shared tokens", i)))
	}
	batch := BuildIndex(recs, IndexOptions{})
	grown := BuildIndex(nil, IndexOptions{})
	for _, r := range recs {
		grown.Add(r)
	}
	if batch.Len() != grown.Len() {
		t.Fatalf("Len: batch %d grown %d", batch.Len(), grown.Len())
	}
	for _, q := range recs {
		a := batch.Query(q.Serialize(), 0, 0)
		b := grown.Query(q.Serialize(), 0, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %s: batch %v grown %v", q.ID, a, b)
		}
	}
}

// TestIndexStopTokensAdaptToGrowth: a token that is rare at first
// becomes a stop token as the collection grows, without a rebuild.
func TestIndexStopTokensAdaptToGrowth(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{})
	ix.Add(rec("a", "gadget alpha"))
	ix.Add(rec("b", "gadget beta"))
	if len(ix.Query("gadget", 0, 0)) != 2 {
		t.Fatal("shared token should match both records while rare")
	}
	// Grow to where "gadget" exceeds both the fraction and the
	// absolute floor.
	for i := 0; i < 8; i++ {
		ix.Add(rec(fmt.Sprintf("g%d", i), fmt.Sprintf("gadget gamma%d", i)))
	}
	if got := ix.Query("gadget", 0, 0); len(got) != 0 {
		t.Errorf("stop token still matched %d records", len(got))
	}
	// A rare token still works.
	if got := ix.Query("beta", 0, 0); len(got) != 1 {
		t.Errorf("rare token matched %d records, want 1", len(got))
	}
}

func TestIndexQueryBounds(t *testing.T) {
	ix := BuildIndex([]entity.Record{
		rec("a", "alpha beta"),
		rec("b", "alpha beta gamma"),
		rec("c", "alpha"),
	}, IndexOptions{StopDocFrac: Float(1)}) // no stop-token filtering
	all := ix.Query("alpha beta gamma", 0, 0)
	if len(all) != 3 {
		t.Fatalf("unbounded query returned %d, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Score < all[i].Score {
			t.Fatal("results not ranked by decreasing score")
		}
	}
	if top := ix.Query("alpha beta gamma", 1, 0); len(top) != 1 || ix.Record(top[0].Pos).ID != "b" {
		t.Errorf("top-1 = %v", top)
	}
	if none := ix.Query("delta", 0, 0); len(none) != 0 {
		t.Errorf("unknown token matched %v", none)
	}
}

// TestExplicitZeroThresholds covers the zero-value config contract:
// nil Opts fields select the defaults, and Float(0) is taken as a
// literal zero rather than "unset".
func TestExplicitZeroThresholds(t *testing.T) {
	b := &TokenBlocker{}
	if got := b.Opts.minScore(); got != 1.0 {
		t.Errorf("zero-value MinScore resolves to %v, want default 1.0", got)
	}
	if got := b.Opts.stopDocFrac(); got != 0.2 {
		t.Errorf("zero-value StopDocFrac resolves to %v, want default 0.2", got)
	}
	zero := IndexOptions{MinScore: Float(0), StopDocFrac: Float(0)}
	if got := zero.minScore(); got != 0 {
		t.Errorf("Opts.MinScore Float(0) resolves to %v, want 0", got)
	}
	if got := zero.stopDocFrac(); got != 0 {
		t.Errorf("Opts.StopDocFrac Float(0) resolves to %v, want 0", got)
	}
	neg := IndexOptions{MinScore: Float(-3), StopDocFrac: Float(-1)}.Resolved()
	if *neg.MinScore != 0 || *neg.StopDocFrac != 0 {
		t.Errorf("negative thresholds resolve to (%v, %v), want clamped to (0, 0)", *neg.MinScore, *neg.StopDocFrac)
	}

	// Behavioral check for MinScore: a weak-overlap candidate that the
	// default threshold filters out survives with an explicit zero.
	left := []entity.Record{rec("l", "uncommonword")}
	right := []entity.Record{rec("r", "uncommonword"), rec("x", "unrelated thing")}
	// One shared token across 2 records: idf = log(1 + 2/1) ≈ 1.10 —
	// pad the collection so the token's weight drops below 1.0.
	for i := 0; i < 3; i++ {
		right = append(right, rec(fmt.Sprintf("p%d", i), "uncommonword padding"))
	}
	strict := &TokenBlocker{}
	if got := strict.Candidates(left, right); len(got) != 0 {
		t.Errorf("default MinScore kept %d weak candidates", len(got))
	}
	loose := &TokenBlocker{Opts: IndexOptions{MinScore: Float(0)}}
	if got := loose.Candidates(left, right); len(got) == 0 {
		t.Error("explicit-zero MinScore still filtered weak candidates")
	}

	// Behavioral check for StopDocFrac: with an explicit zero, any
	// token at or above the absolute floor is a stop token.
	var recs []entity.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, rec(fmt.Sprintf("s%d", i), fmt.Sprintf("sharedtok filler%d", i)))
	}
	noStop := BuildIndex(recs, IndexOptions{StopDocFrac: Float(1)}) // filtering off
	if got := noStop.Query("sharedtok", 0, 0); len(got) != 5 {
		t.Fatalf("filter-off index matched %d", len(got))
	}
	zeroStop := BuildIndex(recs, IndexOptions{StopDocFrac: Float(0)})
	if got := zeroStop.Query("sharedtok", 0, 0); len(got) != 0 {
		t.Errorf("explicit-zero StopDocFrac still matched %d records via a frequent token", len(got))
	}
}
