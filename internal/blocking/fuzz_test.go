package blocking

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/tokenize"
)

// snapshotBytes writes ix as an EMIX snapshot and returns the file.
func snapshotBytes(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	b, err := os.ReadFile(writeTestSnapshot(tb, ix))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// openBytes writes b to a file and opens it with OpenMapped, stop
// filtering off so queries decode every posting list they touch.
func openBytes(tb testing.TB, b []byte) (*Index, error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "open.emx")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		tb.Fatal(err)
	}
	return OpenMapped(path, IndexOptions{StopDocFrac: Float(1)})
}

// exerciseMapped drives every read and write path of an opened index
// over damaged data: records, queries at each bound, QueryTokens, an
// Add with new and known tokens, and a rewrite. Nothing may panic,
// and no query may name a position outside the index.
func exerciseMapped(t *testing.T, ix *Index) {
	t.Helper()
	queries := []string{"sony camera pro x100", "canon printer dock kit blue x200", "zzz unknown"}
	for pos := 0; pos < ix.Len(); pos++ {
		r := ix.Record(pos)
		_ = ix.RecordID(pos)
		if pos < 8 {
			queries = append(queries, r.Serialize())
		}
	}
	check := func() {
		for _, q := range queries {
			for _, k := range []int{0, 1, 10} {
				for _, c := range ix.Query(q, k, 0) {
					if c.Pos < 0 || c.Pos >= ix.Len() {
						t.Fatalf("Query(%q, %d) returned position %d of %d", q, k, c.Pos, ix.Len())
					}
					_ = ix.Record(c.Pos)
				}
				for _, c := range ix.QueryTokens(tokenize.Words(q), k, 0) {
					if c.Pos < 0 || c.Pos >= ix.Len() {
						t.Fatalf("QueryTokens(%q, %d) returned position %d of %d", q, k, c.Pos, ix.Len())
					}
				}
			}
		}
	}
	check()
	ix.Add(entity.Record{ID: "fuzz-added", Attrs: []entity.Attr{{Name: "title", Value: "sony camera novelfuzztoken"}}})
	check()
	if err := ix.WriteSnapshot(filepath.Join(t.TempDir(), "rewrite.emx")); err != nil {
		t.Fatalf("WriteSnapshot of an accepted snapshot: %v", err)
	}
}

// FuzzOpenMapped is the fuzz target of the EMIX decoder. OpenMapped on
// arbitrary bytes either succeeds or fails with ErrSnapshotTorn or
// ErrSnapshotVersion; an index it accepts serves every read and write
// path without panicking. The seed corpus — an empty, a one-record, a
// tie-heavy and a mapped-plus-overlay rewrite snapshot, plus the
// entry corruptions of TestSnapshotCorruptEntriesTyped — runs under
// plain go test.
func FuzzOpenMapped(f *testing.F) {
	rng := detrand.New("fuzz-open-mapped")
	ties := BuildIndex(randomRecords(rng, 600), IndexOptions{})
	tiesSnap := snapshotBytes(f, ties)
	overlay, err := openBytes(f, tiesSnap)
	if err != nil {
		f.Fatal(err)
	}
	for i, r := range randomRecords(rng, 150) {
		r.ID = "x" + r.ID
		if i%3 == 0 {
			r.Attrs[0].Value += " novel gadget"
		}
		overlay.Add(r)
	}
	seeds := [][]byte{
		snapshotBytes(f, BuildIndex(nil, IndexOptions{})),
		snapshotBytes(f, BuildIndex([]entity.Record{rec("one", "sony camera x100")}, IndexOptions{})),
		tiesSnap,
		snapshotBytes(f, overlay),
	}
	overlay.Close()
	for _, corruptions := range []map[string]func([]byte){tornEntryCorruptions, degradingCorruptions} {
		for _, damage := range corruptions {
			b := append([]byte{}, tiesSnap...)
			damage(b)
			seeds = append(seeds, b)
		}
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := openBytes(t, data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotTorn) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("OpenMapped error is not a typed snapshot error: %v", err)
			}
			return
		}
		defer ix.Close()
		exerciseMapped(t, ix)
	})
}

// TestSnapshotCorruptPostingsServe pins the postings half of the
// snapshot's damage handling on an index with sealed posting blocks.
// Rotted block metadata, and a stream whose last byte continues a
// uvarint, fail the open-time sweep. Rotted stream bytes inside that
// frame — a stream shorter than its postings, zero deltas, deltas
// running past the token's last position, multi-byte garbage — open
// fine and are cut off by the cursor, never
// surfacing an out-of-range position or a panic.
func TestSnapshotCorruptPostingsServe(t *testing.T) {
	good := snapshotBytes(t, BuildIndex(randomRecords(detrand.New("corrupt-postings"), 600), IndexOptions{}))
	if secLen(good, secBlockMeta) == 0 {
		t.Fatal("fixture has no sealed posting blocks")
	}
	// fillPostings overwrites every stream byte with the repeating
	// pattern; framed keeps each token's last byte ending a uvarint.
	fillPostings := func(framed bool, pattern ...byte) []byte {
		b := append([]byte{}, good...)
		off, end := secOff(b, secPostings), secOff(b, secPostings)+secLen(b, secPostings)
		for o := off; o < end; o++ {
			b[o] = pattern[(o-off)%uint64(len(pattern))]
		}
		for e := b[secOff(b, secTokenTable):][:secLen(b, secTokenTable)]; framed && len(e) > 0; e = e[tokEntrySize:] {
			if n := uint64(binary.LittleEndian.Uint32(e[8:])); n > 0 {
				b[off+binary.LittleEndian.Uint64(e)+n-1] = 0x01
			}
		}
		return b
	}

	blockMeta := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(blockMeta[secOff(blockMeta, secBlockMeta):], 1<<30)
	for name, b := range map[string][]byte{
		"block-last-position": blockMeta,
		"continuation-bytes":  fillPostings(false, 0xff),
	} {
		if _, err := openBytes(t, b); !errors.Is(err, ErrSnapshotTorn) {
			t.Fatalf("%s: OpenMapped error = %v, want ErrSnapshotTorn", name, err)
		}
	}

	// A stream shorter than its document frequency: token 0 claims 127
	// postings (no sealed block) but holds 10 one-byte deltas.
	short := fillPostings(true, 0x01)
	e := short[secOff(short, secTokenTable):]
	binary.LittleEndian.PutUint32(e[8:], 10)
	binary.LittleEndian.PutUint32(e[12:], postingBlock-1)
	binary.LittleEndian.PutUint32(e[24:], 0)

	for name, b := range map[string][]byte{
		"short-stream":     short,
		"zero-deltas":      fillPostings(true, 0x00),
		"large-deltas":     fillPostings(true, 0x7f),
		"multibyte-deltas": fillPostings(true, 0xff, 0xff, 0x01),
	} {
		ix, err := openBytes(t, b)
		if err != nil {
			t.Fatalf("%s: OpenMapped error = %v, want the stream damage found at decode", name, err)
		}
		t.Run(name, func(t *testing.T) { exerciseMapped(t, ix) })
		ix.Close()
	}
}
