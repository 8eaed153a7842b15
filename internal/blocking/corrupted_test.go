package blocking

import (
	"reflect"
	"strings"
	"testing"

	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

// corruptedCollection builds the record set the dirty-data
// differential test runs over: realistic product and bibliographic
// shapes pushed through every corruption kind, plus the degenerate
// shapes blocking must rank identically on both paths — unicode
// values, empty and all-empty fields, and a megabyte-sized blob value.
func corruptedCollection() []entity.Record {
	prod := entity.Schema{Domain: entity.Product,
		Attributes: []string{"brand", "title", "modelno", "price"}}
	bib := entity.Schema{Domain: entity.Publication,
		Attributes: []string{"authors", "title", "venue", "year"}}
	base := []entity.Record{
		prod.NewRecord("p1", "sony", "cybershot digital camera pro", "dsc-120b", "348.00"),
		prod.NewRecord("p2", "canon", "powershot camera silver 8gb", "sx620", "219.99"),
		prod.NewRecord("p3", "sony", "alpha mirrorless camera body", "a7iii", "1998.00"),
		bib.NewRecord("b1", "j smith a jones", "scalable entity matching systems", "vldb", "2004"),
		bib.NewRecord("b2", "m garcia", "approximate joins revisited", "sigmod conference", "2007"),
	}
	recs := append([]entity.Record{}, base...)
	for _, kind := range datasets.CorruptionKinds() {
		c := datasets.ForLevel("blocking-differential", kind, 2)
		for _, r := range base {
			cr := c.Corrupt(r)
			cr.ID = r.ID + "-" + string(kind)
			recs = append(recs, cr)
		}
	}
	recs = append(recs,
		entity.Record{ID: "uni", Attrs: []entity.Attr{
			{Name: "title", Value: "Čamera Ñikon ソニー φωτο émile"},
			{Name: "brand", Value: "ñikon"},
		}},
		entity.Record{ID: "empty-fields", Attrs: []entity.Attr{
			{Name: "title", Value: ""},
			{Name: "brand", Value: "sony"},
			{Name: "price", Value: ""},
		}},
		entity.Record{ID: "all-empty", Attrs: []entity.Attr{
			{Name: "title", Value: ""},
		}},
		entity.Record{ID: "blob", Attrs: []entity.Attr{
			{Name: "title", Value: "camera " + strings.Repeat("blobword ", 1<<17) + "sony"},
		}},
	)
	return recs
}

// TestQueryMatchesReferenceCorrupted extends the hot-path differential
// test to dirty-data inputs: on corrupted, unicode, empty-field and
// megabyte-blob records, the zero-allocation path must rank
// byte-identically (order AND scores) to the reference implementation
// for every query drawn from the same dirty collection.
func TestQueryMatchesReferenceCorrupted(t *testing.T) {
	recs := corruptedCollection()
	for _, stopFrac := range []float64{0, 0.3, 1} {
		ix := BuildIndex(recs, IndexOptions{StopDocFrac: Float(stopFrac)})
		queries := []string{
			"sony camera",
			"",
			"Čamera ソニー émile",
			"blobword camera",
			recs[len(recs)-1].Serialize(), // the megabyte blob itself
		}
		for _, r := range recs {
			queries = append(queries, r.Serialize())
		}
		for qi, text := range queries {
			for _, maxCandidates := range []int{0, 3, 1000} {
				got := ix.Query(text, maxCandidates, 0)
				want := referenceQuery(recs, stopFrac, text, maxCandidates, 0)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stop=%v query %d (max=%d): hot path diverges from reference\n got %v\nwant %v",
						stopFrac, qi, maxCandidates, got, want)
				}
			}
		}
	}
}
