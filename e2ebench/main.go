// Command e2ebench is the repository's end-to-end benchmark. It starts
// cmd/emserve as a child process on loopback, drives its /v1 API from
// one generator process (GOMAXPROCS 2, two HTTP connections) with a
// seeded open-loop workload, checks every answer, and prints the
// end-to-end metrics. With -trace 1 it then replays the same inputs
// in-process through the store's public APIs and prints the per-layer
// metrics instead.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload catalog-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Earlier lines are the human-readable report. See README.md for the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets the server up; setup_s is the
// median. The timed phase alternates open-loop blocks of blockSeconds
// with closed-loop capacity blocks.
const (
	setups       = 5
	blockSeconds = 2
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: catalog-local, hardband-escalate or durable-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced in-process replay")
	bin := flag.String("emserve", ".bench_build/bin/emserve", "emserve binary")
	work := flag.String("workdir", ".bench_build", "directory for logs, persist dirs and traces")
	flag.Parse()
	runtime.GOMAXPROCS(2)

	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", sp.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := run(sp, *seed, *seconds, *trace == 1, *bin, runDir, *work)
	if err != nil {
		// The run directory keeps the server logs for diagnosis.
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	os.RemoveAll(runDir)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(sp spec, seed int64, seconds int, traced bool, bin, runDir, work string) (*output, error) {
	in, err := generate(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("host cpu=%q nproc=%d go=%s seed=%d workload=%s seconds=%d trace=%v\n",
		cpuModel(), runtime.NumCPU(), runtime.Version(), seed, sp.name, seconds, traced)
	res, err := runE2E(in, bin, runDir)
	if err != nil {
		return nil, err
	}
	res.printReport()
	out := &output{Correct: res.check.n == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	if traced {
		lay, err := runTraced(in, res, runDir, work)
		if err != nil {
			return nil, err
		}
		lay.printReport(res)
		out.Metrics = lay.metrics
		out.Correct = out.Correct && lay.check.n == 0
	}
	return out, nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile (nearest rank) of ds in
// milliseconds, sorting ds in place.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.999999) - 1
	i = max(0, min(i, len(ds)-1))
	return float64(ds[i]) / float64(time.Millisecond)
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
