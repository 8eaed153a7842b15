package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llm4em/internal/blocking"
	"llm4em/internal/entity"
	"llm4em/internal/features"
	"llm4em/internal/llm"
	"llm4em/internal/persist"
	"llm4em/internal/prompt"
	"llm4em/internal/resolve"
	"llm4em/internal/telemetry"
)

// The traced run replays the workload's inputs in-process through the
// store's public API, configured as emserve configures it by default.
// Spans are recorded only here, around the calls into each layer; the
// store's own telemetry.Trace supplies the in-place stage split of each
// resolve.

// span is one timed call at a layer boundary. Spans of one request
// share a trace ID; a stage span's parent is its resolve's span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name, trace string, parent uint64, start, end time.Time) uint64 {
	id := t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timedClient wraps the model at the llm layer boundary: it counts and
// times every request that reaches the client. It implements
// llm.ContextClient so cancellation still reaches the model.
type timedClient struct {
	inner        llm.Client
	tr           *tracer
	calls        atomic.Int64
	nanos        atomic.Int64
	promptTokens atomic.Int64
}

func (c *timedClient) Name() string { return c.inner.Name() }

func (c *timedClient) Chat(msgs []llm.Message) (llm.Response, error) {
	return c.ChatContext(context.Background(), msgs)
}

func (c *timedClient) ChatContext(ctx context.Context, msgs []llm.Message) (llm.Response, error) {
	t0 := time.Now()
	resp, err := llm.ChatContext(ctx, c.inner, msgs)
	t1 := time.Now()
	c.tr.record("llm.Chat", "", 0, t0, t1)
	c.calls.Add(1)
	c.nanos.Add(int64(t1.Sub(t0)))
	c.promptTokens.Add(int64(resp.PromptTokens))
	return resp, err
}

// timedFS wraps the WAL's file system at the persist layer boundary:
// it times every write and counts bytes and fsyncs.
type timedFS struct {
	tr     *tracer
	writes atomic.Int64
	bytes  atomic.Int64
	nanos  atomic.Int64
	syncs  atomic.Int64
}

func (fs *timedFS) OpenFile(path string) (persist.File, error) {
	f, err := persist.OS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

type timedFile struct {
	persist.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	t1 := time.Now()
	f.fs.tr.record("persist.WALWrite", "", 0, t0, t1)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	f.fs.nanos.Add(int64(t1.Sub(t0)))
	return n, err
}

func (f *timedFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// layers is the outcome of the traced run.
type layers struct {
	metrics map[string]metric
	check   checker
	// Traced mean per resolve of each stage, in µs.
	stages [telemetry.NumStages]float64
	// Per-function allocation counts from testing.Benchmark.
	benches []benchLine
}

type benchLine struct {
	name                         string
	n                            int
	nsPerOp, allocsPerOp, bPerOp float64
}

func (l *layers) add(m string, v float64, unit string) { l.metrics[m] = metric{v, unit} }

// storeOptions mirrors emserve's defaults.
func storeOptions(tel *telemetry.Telemetry, dir string, fs persist.FS) (resolve.Options, error) {
	design, err := prompt.DesignByName("domain-complex-force")
	if err != nil {
		return resolve.Options{}, err
	}
	return resolve.Options{
		Design:        design,
		Domain:        entity.Product,
		DispatchPairs: 16,
		PersistDir:    dir,
		WALFS:         fs,
		Telemetry:     tel,
		Resilience:    resolve.ResilienceOptions{Enabled: true},
	}, nil
}

func newTelemetry() *telemetry.Telemetry {
	return telemetry.New(telemetry.Options{
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		SlowResolve: time.Second,
	})
}

// replaySeconds caps the traced replay: the first replaySeconds of the
// open-loop schedule are replayed.
const replaySeconds = 10

// runTraced replays the open-loop ops at the workload's rate on two
// workers, then measures each layer's functions on the workload's own
// inputs.
func runTraced(in *inputs, e *e2eResult, runDir, work string) (*layers, error) {
	l := &layers{metrics: map[string]metric{}}
	tr := &tracer{t0: time.Now()}
	model, err := llm.New("GPT-mini")
	if err != nil {
		return nil, err
	}
	client := &timedClient{inner: model, tr: tr}
	fs := &timedFS{tr: tr}
	tel := newTelemetry()
	dir := ""
	if in.persist {
		dir = filepath.Join(runDir, "traced")
	}
	opts, err := storeOptions(tel, dir, fs)
	if err != nil {
		return nil, err
	}
	store, err := resolve.Open(client, opts)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			store.Close()
		}
	}()
	for i := 0; i < len(in.preload); i += 1000 {
		t0 := time.Now()
		if err := store.AddBatch(in.preload[i:min(i+1000, len(in.preload))]); err != nil {
			return nil, err
		}
		tr.record("resolve.AddBatch", "", 0, t0, time.Now())
	}

	// Replay.
	st0 := store.Stats()
	blk0 := blockingCounts(tel)
	calls0, nanos0, ptok0 := client.calls.Load(), client.nanos.Load(), client.promptTokens.Load()
	fsW0, fsB0, fsN0, fsS0 := fs.writes.Load(), fs.bytes.Load(), fs.nanos.Load(), fs.syncs.Load()
	snapSum0, snapN0 := tel.Persist.SnapshotSeconds.Sum(), tel.Persist.SnapshotSeconds.Count()
	waitSum0, waitN0 := tel.Dispatch.WaitSeconds.Sum(), tel.Dispatch.WaitSeconds.Count()
	ops := in.ops[:min(len(in.ops), int(in.rate*replaySeconds))]
	rep := replay(store, in.rate, ops, tr, dir, tel)
	st1 := store.Stats()
	blk1 := blockingCounts(tel)
	l.check = rep.check

	resolves := float64(rep.resolves)
	for s := range l.stages {
		l.stages[s] = ratio(float64(rep.stages[s].Microseconds()), resolves)
	}
	serverResolveUS := e.prom["em_resolve_seconds"].mean() * 1e6
	routeUS := e.prom[`em_http_request_seconds{route="resolve"}`].mean() * 1e6
	var clientSvc time.Duration
	var clientN int
	for _, p := range e.open {
		for i, r := range p.results {
			if r.err == nil && p.ops[i].kind == opResolve {
				clientSvc += r.svc
				clientN++
			}
		}
	}
	totalUS := ratio(float64(rep.total.Microseconds()), resolves)
	l.add("http.handler_us", routeUS-serverResolveUS, "us")
	l.add("http.transport_us", ratio(float64(clientSvc.Microseconds()), float64(clientN))-routeUS, "us")
	for _, st := range []telemetry.Stage{telemetry.StageExtract, telemetry.StageBlock, telemetry.StageJournal,
		telemetry.StageScore, telemetry.StageFold, telemetry.StagePersist} {
		l.add("resolve."+st.String()+"_us", l.stages[st], "us")
	}
	l.add("resolve.escalate_us", l.stages[telemetry.StageLLM]+l.stages[telemetry.StageDispatchWait], "us")
	l.add("resolve.total_us", totalUS, "us")
	l.add("resolve.trace_overhead_us", totalUS-serverResolveUS, "us")
	l.add("resolve.candidates_per_resolve", ratio(float64(st1.Candidates-st0.Candidates), resolves), "pairs")
	l.add("resolve.local_fraction", 1-ratio(float64(st1.LLMPairs-st0.LLMPairs), float64(st1.Candidates-st0.Candidates)), "ratio")

	l.add("blocking.postings_scanned_per_query", ratio(blk1.scanned-blk0.scanned, blk1.queries-blk0.queries), "postings")
	l.add("blocking.postings_pruned_per_query", ratio(blk1.pruned-blk0.pruned, blk1.queries-blk0.queries), "postings")

	d0, d1 := st0.Dispatch, st1.Dispatch
	calls := float64(client.calls.Load() - calls0)
	flushes := float64(d1.SizeFlushes + d1.DeadlineFlushes + d1.DrainFlushes - d0.SizeFlushes - d0.DeadlineFlushes - d0.DrainFlushes)
	waits := tel.Dispatch.WaitSeconds
	l.add("dispatch.pairs_per_call", ratio(float64(st1.LLMPairs-st0.LLMPairs), calls), "pairs")
	l.add("dispatch.wait_us_per_pair", ratio((waits.Sum()-waitSum0)*1e6, float64(waits.Count()-waitN0)), "us")
	l.add("dispatch.deadline_flush_frac", ratio(float64(d1.DeadlineFlushes-d0.DeadlineFlushes), flushes), "ratio")
	l.add("dispatch.singleflight_hits", float64(d1.SingleFlightHits-d0.SingleFlightHits), "count")
	e0, e1 := st0.Engine, st1.Engine
	l.add("pipeline.cache_hit_frac", ratio(float64(e1.CacheHits-e0.CacheHits), float64(e1.CacheHits-e0.CacheHits+e1.ClientCalls-e0.ClientCalls)), "ratio")
	l.add("pipeline.retries", float64(e1.Retries-e0.Retries), "count")
	l.add("llm.calls", calls, "count")
	l.add("llm.call_us", ratio(float64(client.nanos.Load()-nanos0)/1e3, calls), "us")
	l.add("llm.prompt_tokens_per_call", ratio(float64(client.promptTokens.Load()-ptok0), calls), "tokens")
	multi := float64(d1.Batches + d1.GroupCalls - d0.Batches - d0.GroupCalls)
	fallbacks := float64(d1.ParseFallbacks + d1.GroupParseFallbacks - d0.ParseFallbacks - d0.GroupParseFallbacks)
	l.add("llm.parse_fallback_frac", ratio(fallbacks, multi), "ratio")

	walBytes := float64(fs.bytes.Load() - fsB0)
	snaps := tel.Persist.SnapshotSeconds
	l.add("persist.wal_write_us", ratio(float64(fs.nanos.Load()-fsN0)/1e3, float64(fs.writes.Load()-fsW0)), "us")
	l.add("persist.wal_bytes_per_op", ratio(walBytes, float64(rep.resolves+rep.ingests)), "B")
	l.add("persist.fsyncs", float64(fs.syncs.Load()-fsS0), "count")
	l.add("persist.checkpoints", float64(st1.Persist.Snapshots-st0.Persist.Snapshots), "count")
	l.add("persist.checkpoint_ms", ratio((snaps.Sum()-snapSum0)*1e3, float64(snaps.Count()-snapN0)), "ms")
	l.add("persist.checkpoint_bytes", ratio(float64(rep.checkpointBytes), float64(rep.checkpoints)), "B")
	l.add("persist.write_amp", ratio(walBytes+float64(rep.checkpointBytes), float64(rep.userBytes)), "ratio")

	// Restart: reopen the persisted directory and map its index files.
	openMappedMS := 0.0
	if in.persist {
		closed = true
		if err := store.Close(); err != nil {
			return nil, err
		}
		if openMappedMS, err = openMapped(dir); err != nil {
			return nil, err
		}
	}
	l.add("blocking.open_mapped_ms", openMappedMS, "ms")

	if err := l.microbench(in, store, model, rep, opts); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(work, "traces"), 0o755); err != nil {
		return nil, err
	}
	return l, tr.write(filepath.Join(work, "traces", fmt.Sprintf("%s-%d.jsonl", in.name, in.seed)))
}

type blockCounts struct{ queries, scanned, pruned float64 }

func blockingCounts(tel *telemetry.Telemetry) blockCounts {
	b := tel.Blocking
	return blockCounts{float64(b.Queries.Value()), float64(b.PostingsScanned.Value()), float64(b.PostingsPruned.Value())}
}

// replayResult tallies the replay.
type replayResult struct {
	check             checker
	resolves, ingests int
	total             time.Duration // Σ ResolveContext wall time
	stages            telemetry.StageDurations
	// cands pairs each resolved query with the candidates it was
	// decided against, for the PairFeatures measurement.
	cands           map[string][]string
	checkpoints     int
	checkpointBytes int64
	userBytes       int64
}

// replay runs ops at the given rate on two workers.
func replay(store *resolve.Store, rate float64, ops []op, tr *tracer, dir string, tel *telemetry.Telemetry) *replayResult {
	rep := &replayResult{cands: map[string][]string{}}
	var mu sync.Mutex
	lastSnaps := tel.Persist.Snapshots.Value()
	jobs := make(chan int, len(ops)) // never blocks the scheduler
	wait := startWorkers(jobs, func(i int) {
		o := ops[i]
		trace := fmt.Sprintf("op-%d", i)
		switch o.kind {
		case opResolve:
			t := telemetry.NewTrace(trace)
			t0 := time.Now()
			res, err := store.ResolveContext(telemetry.WithTrace(context.Background(), t), o.rec)
			t1 := time.Now()
			id := tr.record("resolve.ResolveContext", trace, 0, t0, t1)
			durs := t.Durations()
			at := t0
			for s, d := range durs {
				if d > 0 {
					tr.record("resolve.stage."+telemetry.Stage(s).String(), trace, id, at, at.Add(d))
					at = at.Add(d)
				}
			}
			mu.Lock()
			rep.resolves++
			rep.total += t1.Sub(t0)
			for s, d := range durs {
				rep.stages[s] += d
			}
			if err != nil {
				rep.check.failf("traced resolve %s: %v", o.rec.ID, err)
			} else {
				ids := make([]string, len(res.Decisions))
				for j, d := range res.Decisions {
					ids[j] = d.CandidateID
				}
				rep.cands[o.rec.ID] = ids
			}
			mu.Unlock()
		case opIngest:
			t0 := time.Now()
			err := store.Add(o.rec)
			tr.record("resolve.Add", trace, 0, t0, time.Now())
			data, _ := json.Marshal(toJSON(o.rec))
			mu.Lock()
			rep.ingests++
			rep.userBytes += int64(len(data))
			if err != nil {
				rep.check.failf("traced add %s: %v", o.rec.ID, err)
			}
			mu.Unlock()
		case opRead:
			t0 := time.Now()
			members, ok := store.Entity(o.id)
			for _, m := range members {
				store.Record(m)
			}
			tr.record("resolve.Entity", trace, 0, t0, time.Now())
			if !ok {
				mu.Lock()
				rep.check.failf("traced read %s: unknown", o.id)
				mu.Unlock()
			}
		}
		// A checkpoint finished inside this op: size it.
		if dir != "" {
			mu.Lock()
			if n := tel.Persist.Snapshots.Value(); n != lastSnaps {
				lastSnaps = n
				rep.checkpoints++
				rep.checkpointBytes += checkpointBytes(dir)
			}
			mu.Unlock()
		}
	})
	pace(len(ops), rate, func(i int, _ time.Time) { jobs <- i })
	close(jobs)
	wait()
	return rep
}

// checkpointBytes sizes the committed checkpoint: the JSON snapshot
// plus the index files of its epoch.
func checkpointBytes(dir string) int64 {
	var n int64
	if fi, err := os.Stat(filepath.Join(dir, persist.SnapshotFile)); err == nil {
		n += fi.Size()
	}
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("index-%d-*.emx", persist.MaxIndexEpoch(dir))))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// openMapped maps every shard index file of the newest epoch, as a
// restart does, and returns the total time in ms.
func openMapped(dir string) (float64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("index-%d-*.emx", persist.MaxIndexEpoch(dir))))
	if err != nil || len(matches) == 0 {
		return 0, errors.Join(errors.New("no index files to map"), err)
	}
	var total time.Duration
	for _, m := range matches {
		t0 := time.Now()
		ix, err := blocking.OpenMapped(m, blocking.IndexOptions{})
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := ix.Close(); err != nil {
			return 0, err
		}
	}
	return float64(total) / float64(time.Millisecond), nil
}

// microbench measures each layer's entry points on the workload's own
// inputs with testing.Benchmark at a fixed iteration count, so the
// allocation counts are exact and host-independent.
func (l *layers) microbench(in *inputs, store *resolve.Store, model llm.Client, rep *replayResult, opts resolve.Options) error {
	testing.Init()
	bench := func(name string, n int, f func(b *testing.B)) (testing.BenchmarkResult, error) {
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", n)); err != nil {
			return testing.BenchmarkResult{}, err
		}
		r := testing.Benchmark(f)
		l.benches = append(l.benches, benchLine{name, r.N, float64(r.NsPerOp()), float64(r.AllocsPerOp()), float64(r.AllocedBytesPerOp())})
		return r, nil
	}

	texts := make([]string, 0, len(in.preload))
	for _, r := range in.preload {
		texts = append(texts, r.Serialize())
	}
	r, err := bench("features.ExtractText", 5000, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkExt = features.ExtractText(texts[i%len(texts)])
		}
	})
	if err != nil {
		return err
	}
	l.add("features.extract_ns", float64(r.NsPerOp()), "ns")
	l.add("features.extract_allocs", float64(r.AllocsPerOp()), "allocs")

	// Candidate pairs the replay decided, as extractions.
	recs := make(map[string]entity.Record, len(in.preload))
	for _, r := range in.preload {
		recs[r.ID] = r
	}
	var pairs [][2]features.Extracted
	for _, o := range in.ops {
		if o.kind != opResolve {
			continue
		}
		q := features.ExtractText(o.rec.Serialize())
		for _, c := range rep.cands[o.rec.ID] {
			if cr, ok := recs[c]; ok && len(pairs) < 5000 {
				pairs = append(pairs, [2]features.Extracted{q, features.ExtractText(cr.Serialize())})
			}
		}
	}
	if len(pairs) == 0 {
		return errors.New("no candidate pairs to measure")
	}
	if r, err = bench("features.PairFeatures", 5000, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &pairs[i%len(pairs)]
			sinkVec, _ = features.PairFeatures(p[0], p[1])
		}
	}); err != nil {
		return err
	}
	l.add("features.pair_ns", float64(r.NsPerOp()), "ns")
	l.add("features.pair_allocs", float64(r.AllocsPerOp()), "allocs")

	ix := blocking.BuildIndex(in.preload, blocking.IndexOptions{})
	var queries []string
	for _, o := range in.ops {
		if o.kind == opResolve {
			queries = append(queries, o.rec.Serialize())
		}
	}
	if r, err = bench("blocking.Index.Query", 2000, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkCands = ix.Query(queries[i%len(queries)], resolve.DefaultMaxCandidates, resolve.DefaultMinScore)
		}
	}); err != nil {
		return err
	}
	l.add("blocking.query_ns", float64(r.NsPerOp()), "ns")
	l.add("blocking.query_allocs", float64(r.AllocsPerOp()), "allocs")

	// Store.Add into a fresh store configured like the workload's.
	addOpts := opts
	addOpts.Telemetry = newTelemetry()
	if in.persist {
		addOpts.PersistDir = opts.PersistDir + "-add"
		addOpts.WALFS = nil
	}
	addStore, err := resolve.Open(model, addOpts)
	if err != nil {
		return err
	}
	next := 0
	var opErr error
	r, err = bench("resolve.Store.Add", 2000, func(b *testing.B) {
		for i := 0; i < b.N && opErr == nil; i++ {
			rec := in.preload[next%len(in.preload)]
			rec.ID = fmt.Sprintf("add-%d", next)
			next++
			opErr = addStore.Add(rec)
		}
	})
	if err := errors.Join(err, opErr, addStore.Close()); err != nil {
		return err
	}
	l.add("resolve.add_us", float64(r.NsPerOp())/1e3, "us")
	l.add("resolve.allocs_per_add", float64(r.AllocsPerOp()), "allocs")

	// Store.Resolve on the replayed store with the queries the replay
	// did not send; a persistent store is reopened on its directory.
	if in.persist {
		opts.Telemetry, opts.WALFS = newTelemetry(), nil
		s, err := resolve.Open(model, opts)
		if err != nil {
			return err
		}
		defer s.Close()
		store = s
	}
	n := min(len(in.capacity)-1, 1000)
	if in.hardShare == 1 {
		n = min(n, 300) // each escalation waits out the dispatcher's flush
	}
	next = 0
	r, err = bench("resolve.Store.Resolve", n, func(b *testing.B) {
		for i := 0; i < b.N && opErr == nil; i++ {
			_, opErr = store.Resolve(in.capacity[next])
			next++
		}
	})
	if err := errors.Join(err, opErr); err != nil {
		return err
	}
	l.add("resolve.allocs_per_resolve", float64(r.AllocsPerOp()), "allocs")
	l.add("resolve.bytes_per_resolve", float64(r.AllocedBytesPerOp()), "B")
	return nil
}

var (
	sinkExt   features.Extracted
	sinkVec   features.Vector
	sinkCands []blocking.Candidate
)

// printReport prints the per-layer metrics, the allocation counts, and
// the stage split reconciled against the server's in-place
// em_resolve_stage_seconds.
func (l *layers) printReport(e *e2eResult) {
	for _, b := range l.benches {
		fmt.Printf("bench %-24s n %5d %12.1f ns/op %8.1f allocs/op %10.1f B/op\n", b.name, b.n, b.nsPerOp, b.allocsPerOp, b.bPerOp)
	}
	fmt.Printf("stage-split %-14s %12s %12s %12s\n", "stage", "server_us", "traced_us", "gap_us")
	var srvSum, trSum float64
	for s := 0; s < telemetry.NumStages; s++ {
		st := telemetry.Stage(s)
		sv := e.serverStageUS(st)
		srvSum += sv
		trSum += l.stages[s]
		fmt.Printf("stage-split %-14s %12.1f %12.1f %12.1f\n", st, sv, l.stages[s], l.stages[s]-sv)
	}
	serverResolveUS := e.prom["em_resolve_seconds"].mean() * 1e6
	fmt.Printf("stage-split %-14s %12.1f %12.1f %12.1f\n", "sum", srvSum, trSum, trSum-srvSum)
	fmt.Printf("stage-split %-14s %12.1f %12.1f %12.1f  (server em_resolve_seconds mean vs traced ResolveContext)\n",
		"total", serverResolveUS, l.metrics["resolve.total_us"].Value, l.metrics["resolve.trace_overhead_us"].Value)
	fmt.Printf("stage-split dispatch_wait: server em_dispatch_wait_seconds mean %.1f us/pair, em_resolve_stage_seconds{stage=\"dispatch_wait\"} %.1f us/resolve\n",
		e.prom["em_dispatch_wait_seconds"].mean()*1e6, e.serverStageUS(telemetry.StageDispatchWait))
	for _, p := range l.check.problems {
		fmt.Println("INCORRECT traced", p)
	}
	for _, name := range sortedKeys(l.metrics) {
		m := l.metrics[name]
		fmt.Printf("layer %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
