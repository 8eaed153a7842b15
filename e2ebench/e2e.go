package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"llm4em/internal/entity"
	"llm4em/internal/telemetry"
)

// e2eResult is one run of the server under the workload.
type e2eResult struct {
	in        *inputs
	setup     []float64 // seconds, one per set-up, steal-adjusted
	setupWall []float64 // the same, as measured
	phases    []*phase  // every phase, in order
	open      []*phase  // open-loop blocks
	capacity  []*phase  // closed-loop capacity blocks
	check     checker
	quality   quality
	attempted int
	failed    int
	metrics   map[string]metric
	// Server-side view of the open-loop phase: histogram deltas from
	// GET /v1/metrics and counter deltas from GET /v1/stats.
	prom        map[string]promSample
	llmCalls    float64
	checkpoints float64
	serverCPU   time.Duration // emserve user+system CPU time
	host        hostTicks     // machine CPU ticks over the open-loop blocks
	rssMB       float64
	// Durable-mixed only.
	restartS      float64
	diskPerRecord float64

	extra         []line    // reported, not in the result line
	blockCapacity []float64 // closed-loop rate of each capacity block
}

func (r *e2eResult) add(m string, v float64, unit string) { r.metrics[m] = metric{v, unit} }

// runE2E sets the server up, runs the open-loop and capacity phases,
// checks every answer and computes the end-to-end metrics.
func runE2E(in *inputs, bin, runDir string) (*e2eResult, error) {
	res := &e2eResult{in: in, metrics: map[string]metric{}}
	records := make(map[string]entity.Record, len(in.preload)+len(in.ops))
	for _, r := range in.preload {
		records[r.ID] = r
	}
	for _, o := range in.ops {
		if o.kind == opIngest {
			records[o.rec.ID] = o.rec
		}
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	logPath := filepath.Join(runDir, "emserve.log")

	// Set up several times; setup_s is the median. The last server
	// carries the run.
	var srv *server
	var dir string
	for i := 0; i < setups; i++ {
		if in.persist {
			dir = filepath.Join(runDir, fmt.Sprintf("persist-%d", i))
		}
		h0, err := readHostTicks()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startServer(bin, logPath, dir)
		if err != nil {
			return nil, err
		}
		if err := s.waitReady(cl, time.Minute); err != nil {
			s.stop(10 * time.Second)
			return nil, err
		}
		if err := s.preload(cl, in.preload); err != nil {
			s.stop(10 * time.Second)
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		h1, err := readHostTicks()
		if err != nil {
			s.stop(10 * time.Second)
			return nil, err
		}
		res.setupWall = append(res.setupWall, wall)
		res.setup = append(res.setup, wall*(1-h1.sub(h0).stealShare()))
		if i == setups-1 {
			srv = s
			break
		}
		cl.CloseIdleConnections()
		if err := s.stop(time.Minute); err != nil {
			return nil, err
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop(time.Minute)
		}
	}()

	// Warm the connections and the read path; not measured.
	warm := make([]string, 0, 200)
	for i := 0; i < 200 && i < len(in.preload); i++ {
		warm = append(warm, in.preload[len(in.preload)-1-i].ID)
	}
	res.phases = append(res.phases, closedLoop(cl, srv, "warmup", readOps(warm)))

	// The timed phase alternates open-loop blocks with closed-loop
	// capacity blocks, so both sample the whole run. The hypervisor's
	// steal share is measured over every block: timings are reported
	// both as measured and scaled by (1 - steal), the time the work
	// would take on vCPUs nobody else preempts.
	res.prom = map[string]promSample{}
	for b := 0; b < in.blocks; b++ {
		st0, err := srv.stats(cl)
		if err != nil {
			return nil, err
		}
		prom0, err := srv.scrape(cl)
		if err != nil {
			return nil, err
		}
		ops := in.ops[b*len(in.ops)/in.blocks : (b+1)*len(in.ops)/in.blocks]
		cpu0, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		h0, err := readHostTicks()
		if err != nil {
			return nil, err
		}
		open := openLoop(cl, srv, fmt.Sprintf("open-loop/%d", b), ops, in.rate)
		h1, err := readHostTicks()
		if err != nil {
			return nil, err
		}
		cpu1, err := srv.cpuTime()
		if err != nil {
			return nil, err
		}
		res.serverCPU += cpu1 - cpu0
		open.steal = h1.sub(h0).stealShare()
		res.host = res.host.add(h1.sub(h0))
		st1, err := srv.stats(cl)
		if err != nil {
			return nil, err
		}
		prom1, err := srv.scrape(cl)
		if err != nil {
			return nil, err
		}
		for k, v := range prom1 {
			res.prom[k] = res.prom[k].add(v.sub(prom0[k]))
		}
		res.llmCalls += float64(st1.Engine.ClientCalls - st0.Engine.ClientCalls)
		res.checkpoints += float64(st1.Persist.Snapshots - st0.Persist.Snapshots)
		qs := in.capacity[b*in.spec.capacity : (b+1)*in.spec.capacity]
		if h0, err = readHostTicks(); err != nil {
			return nil, err
		}
		capacity := closedLoop(cl, srv, fmt.Sprintf("capacity/%d", b), resolveOps(qs))
		if h1, err = readHostTicks(); err != nil {
			return nil, err
		}
		capacity.steal = h1.sub(h0).stealShare()
		res.open = append(res.open, open)
		res.capacity = append(res.capacity, capacity)
		res.phases = append(res.phases, open, capacity)
	}
	var err error
	if res.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	acked := make([]string, 0, len(records))
	for _, r := range in.preload {
		acked = append(acked, r.ID)
	}
	for _, p := range res.phases {
		res.check.checkPhase(p, records)
		for i, o := range p.ops {
			if o.kind == opIngest && p.results[i].err == nil {
				acked = append(acked, o.rec.ID)
			}
		}
	}

	if in.persist {
		// Drain with SIGTERM, measure the directory, restart on it and
		// read everything back from the recovered store.
		cl.CloseIdleConnections()
		stopped = true
		if err := srv.stop(time.Minute); err != nil {
			return nil, err
		}
		size, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		res.diskPerRecord = float64(size) / float64(len(acked))
		t0 := time.Now()
		if srv, err = startServer(bin, logPath, dir); err != nil {
			return nil, err
		}
		stopped = false
		if err := srv.waitReady(cl, time.Minute); err != nil {
			return nil, err
		}
		res.restartS = time.Since(t0).Seconds()
		res.phases = append(res.phases, res.check.acknowledged(cl, srv, acked, records))
	} else {
		st, err := srv.stats(cl)
		if err != nil {
			return nil, err
		}
		if st.Records != len(acked) {
			res.check.failf("stats: %d records stored, %d acknowledged", st.Records, len(acked))
		}
	}
	res.phases = append(res.phases, res.check.readBack(cl, srv, append(res.open, res.capacity...)...))
	cl.CloseIdleConnections()
	stopped = true
	if err := srv.stop(time.Minute); err != nil {
		return nil, err
	}

	for _, p := range res.phases {
		sent, _, failed := p.counts()
		res.attempted += sent
		res.failed += failed
	}
	res.compute()
	return res, nil
}

// compute derives the end-to-end metrics.
func (r *e2eResult) compute() {
	var all, adj [numOpKinds][]time.Duration
	var capacity []float64
	var capN, capSecs float64
	var tokens, escalated, cands float64
	for _, p := range append(r.open, r.capacity...) {
		for i, res := range p.results {
			if res.err == nil && p.ops[i].kind == opResolve {
				r.quality.add(r.in, p.ops[i].rec.ID, res.resolve)
			}
		}
	}
	for _, p := range r.open {
		for i, res := range p.results {
			if res.err != nil {
				continue
			}
			k := p.ops[i].kind
			all[k] = append(all[k], res.lat)
			adj[k] = append(adj[k], time.Duration(float64(res.lat)*(1-p.steal)))
			if k == opResolve {
				c := res.resolve.Cost
				tokens += float64(c.PromptTokens + c.CompletionTokens)
				cands += float64(*c.Candidates)
				if c.LLMPairs > 0 {
					escalated++
				}
			}
		}
	}
	for _, p := range r.capacity {
		capacity = append(capacity, float64(len(p.results))/p.elapsed.Seconds())
		capN += float64(len(p.results))
		capSecs += p.elapsed.Seconds() * (1 - p.steal)
	}
	resolves := float64(len(all[opResolve]))
	r.add("setup_s", median(r.setup), "s")
	r.add("resolve_p50_ms", r.cleanResolveP50(), "ms")
	r.add("match_f1", r.quality.f1(), "ratio")
	r.blockCapacity = capacity

	// Reported, not gated: zero on some workload, too noisy across runs
	// to hold a bound, or the wall-clock value behind a steal-scaled one.
	samples := func(k opKind) string { return fmt.Sprintf("timed from due, %d samples", len(adj[k])) }
	r.extra = []line{
		{"capacity_rps", ratio(capN, capSecs), "1/s", "closed loop on 2 connections, steal-scaled"},
		{"server_cpu_us_per_op", ratio(float64(r.serverCPU.Microseconds()), float64(len(r.in.ops))), "us", "emserve utime+stime over the open-loop blocks"},
		{"server_rss_mb", r.rssMB, "MiB", "emserve VmHWM"},
		{"wall_setup_s", median(r.setupWall), "s", "as measured"},
		{"resolve_due_p50_ms", quantile(adj[opResolve], 0.5), "ms", "timed from due, steal-scaled"},
		{"wall_resolve_due_p50_ms", quantile(all[opResolve], 0.5), "ms", "timed from due, as measured"},
		{"wall_capacity_rps", ratio(capN, r.capacitySeconds()), "1/s", "as measured"},
		{"host_steal_share", r.host.stealShare(), "ratio", "hypervisor steal during the open-loop blocks"},
		{"resolve_p90_ms", quantile(adj[opResolve], 0.90), "ms", samples(opResolve)},
		{"resolve_p99_ms", quantile(adj[opResolve], 0.99), "ms", samples(opResolve)},
		{"ingest_p50_ms", quantile(adj[opIngest], 0.50), "ms", samples(opIngest)},
		{"ingest_p99_ms", quantile(adj[opIngest], 0.99), "ms", samples(opIngest)},
		{"read_p50_ms", quantile(adj[opRead], 0.50), "ms", samples(opRead)},
		{"error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio", ""},
		{"llm_calls_per_resolve", ratio(r.llmCalls, resolves), "calls", "GET /v1/stats engine.client_calls delta"},
		{"llm_tokens_per_resolve", ratio(tokens, resolves), "tokens", "resolve cost prompt+completion"},
		{"disk_bytes_per_record", r.diskPerRecord, "B", "persist dir after drain"},
		{"restart_s", r.restartS, "s", "re-exec to ready"},
		{"escalated_share", ratio(escalated, resolves), "ratio", "resolves with llm_pairs > 0"},
		{"write_share", ratio(float64(len(all[opIngest])), float64(len(r.in.ops))), "ratio", ""},
		{"candidates_per_resolve", ratio(cands, resolves), "pairs", ""},
		{"checkpoints_in_timed_phase", r.checkpoints, "count", "GET /v1/stats persist.snapshots delta"},
	}
}

// cleanResolveP50 is the gated resolve latency: the p50 of each
// open-loop block's resolves timed from send, scaled by 1 - steal, and
// the median of those over the half of the blocks with the least
// steal. Timed from when they were due, requests also wait for one of
// the generator's two connections; at 15-30% steal that wait grows
// the p50 several-fold while the time from send grows by a quarter.
// Steal comes in episodes of seconds, and choosing the quietest blocks
// keeps an episode out of the figure unless it covers half the run.
func (r *e2eResult) cleanResolveP50() float64 {
	blocks := append([]*phase(nil), r.open...)
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].steal < blocks[j].steal })
	blocks = blocks[:(len(blocks)+1)/2]
	p50s := make([]float64, 0, len(blocks))
	for _, p := range blocks {
		var lat []time.Duration
		for i, res := range p.results {
			if res.err == nil && p.ops[i].kind == opResolve {
				lat = append(lat, res.svc)
			}
		}
		p50s = append(p50s, quantile(lat, 0.5)*(1-p.steal))
	}
	return median(p50s)
}

// line is one report line.
type line struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *e2eResult) capacitySeconds() float64 {
	var secs float64
	for _, p := range r.capacity {
		secs += p.elapsed.Seconds()
	}
	return secs
}

// serverStageUS returns the server's in-place mean per resolve of one
// stage over the open-loop phase, in µs.
func (r *e2eResult) serverStageUS(st telemetry.Stage) float64 {
	s := r.prom[fmt.Sprintf("em_resolve_stage_seconds{stage=%q}", st.String())]
	return ratio(s.sum*1e6, r.prom["em_resolve_seconds"].count)
}

func (r *e2eResult) printReport() {
	for _, p := range r.phases {
		sent, ok, failed := p.counts()
		fmt.Printf("phase %-14s sent %6d ok %6d failed %d elapsed %.3f s", p.name, sent, ok, failed, p.elapsed.Seconds())
		if len(p.lateness) > 0 {
			late := append([]time.Duration(nil), p.lateness...)
			fmt.Printf(" generator lateness p99 %.3f ms max %.3f ms", quantile(late, 0.99), quantile(late, 1))
		}
		fmt.Println()
	}
	fmt.Printf("setup runs %.4f s\n", r.setup)
	for b, p := range r.open {
		var due, sent []time.Duration
		for i, res := range p.results {
			if res.err == nil && p.ops[i].kind == opResolve {
				due = append(due, res.lat)
				sent = append(sent, res.svc)
			}
		}
		fmt.Printf("block %d steal %.3f wall resolve p50 from send %.3f ms, from due %.3f ms | capacity steal %.3f wall_rps %.1f\n",
			b, p.steal, quantile(sent, 0.5), quantile(due, 0.5), r.capacity[b].steal, r.blockCapacity[b])
	}
	fmt.Printf("quality tp %d fp %d fn %d ungraded %d\n", r.quality.tp, r.quality.fp, r.quality.fn, r.quality.ungraded)
	for _, p := range r.check.problems {
		fmt.Println("INCORRECT", p)
	}
	if r.check.n > 0 {
		fmt.Printf("INCORRECT %d problems in total\n", r.check.n)
	}
	for _, name := range sortedKeys(r.metrics) {
		m := r.metrics[name]
		fmt.Printf("e2e %-26s %12.4f %s\n", name, m.Value, m.Unit)
	}
	for _, l := range r.extra {
		fmt.Printf("e2e %-26s %12.4f %s  (%s)\n", l.name, l.value, l.unit, l.note)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
