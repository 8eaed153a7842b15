package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"llm4em/internal/entity"
)

// server is one emserve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:port
	done chan error
}

// startServer launches emserve with its default flags plus the listen
// address and, when dir is set, -persist dir. It returns once the
// process has been started; waitReady polls its readiness probe.
func startServer(bin, logPath, dir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a loopback port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if dir != "" {
		args = append(args, "-persist", dir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself dies, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitReady polls GET /v1/readyz until it answers 200.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("emserve exited before ready: %v (log %s)", err, s.log.Name())
		default:
		}
		resp, err := c.Get(s.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("emserve not ready after %v (log %s)", timeout, s.log.Name())
}

// stop sends SIGTERM — emserve drains in-flight requests, flushes and
// checkpoints a persistent store — and waits for the process to exit,
// killing it after the timeout.
func (s *server) stop(timeout time.Duration) error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("emserve exit: %w (log %s)", err, s.log.Name())
		}
		return nil
	case <-time.After(timeout):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("emserve did not drain within %v", timeout)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTime reads the process's user plus system CPU time from
// /proc/<pid>/stat, in clock ticks of 10 ms.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// newClient returns an HTTP client holding at most two connections to
// the server, the generator's whole connection budget.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// Wire forms of the /v1 API.
type attrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

type recordJSON struct {
	ID    string     `json:"id"`
	Attrs []attrJSON `json:"attrs"`
}

func toJSON(r entity.Record) recordJSON {
	out := recordJSON{ID: r.ID, Attrs: make([]attrJSON, len(r.Attrs))}
	for i, a := range r.Attrs {
		out.Attrs[i] = attrJSON{Name: a.Name, Value: a.Value}
	}
	return out
}

type decisionJSON struct {
	CandidateID string `json:"candidate_id"`
	Match       bool   `json:"match"`
	Method      string `json:"method"`
}

type costJSON struct {
	Candidates       *int `json:"candidates"`
	LLMPairs         int  `json:"llm_pairs"`
	PromptTokens     int  `json:"prompt_tokens"`
	CompletionTokens int  `json:"completion_tokens"`
}

type resolveResp struct {
	QueryID   string         `json:"query_id"`
	EntityID  string         `json:"entity_id"`
	Members   []string       `json:"members"`
	Decisions []decisionJSON `json:"decisions"`
	Cost      *costJSON      `json:"cost"`
}

type addResp struct {
	Added int `json:"added"`
}

type entityResp struct {
	EntityID string       `json:"entity_id"`
	Members  []string     `json:"members"`
	Records  []recordJSON `json:"records"`
}

type statsResp struct {
	Records int `json:"records"`
	Engine  struct {
		ClientCalls uint64 `json:"client_calls"`
	} `json:"engine"`
	Persist struct {
		Snapshots uint64 `json:"snapshots"`
	} `json:"persist"`
}

// call sends one request and decodes a 200 JSON answer into out. Any
// other status, or a body that does not decode, is an error.
func call(c *http.Client, method, u string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, u, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, u, err)
	}
	return nil
}

func (s *server) entityURL(id string) string {
	return s.base + "/v1/entities/" + url.PathEscape(id)
}

// preload bulk-loads records with POST /v1/records in batches.
func (s *server) preload(c *http.Client, recs []entity.Record) error {
	const batch = 1000
	for i := 0; i < len(recs); i += batch {
		j := min(i+batch, len(recs))
		body := struct {
			Records []recordJSON `json:"records"`
		}{Records: make([]recordJSON, 0, j-i)}
		for _, r := range recs[i:j] {
			body.Records = append(body.Records, toJSON(r))
		}
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		var ar addResp
		if err := call(c, "POST", s.base+"/v1/records", data, &ar); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if ar.Added != j-i {
			return fmt.Errorf("preload: added %d of %d records", ar.Added, j-i)
		}
	}
	return nil
}

func (s *server) stats(c *http.Client) (statsResp, error) {
	var st statsResp
	err := call(c, "GET", s.base+"/v1/stats", nil, &st)
	return st, err
}

// promSample is one scraped histogram: its sum and count.
type promSample struct{ sum, count float64 }

func (p promSample) sub(q promSample) promSample { return promSample{p.sum - q.sum, p.count - q.count} }
func (p promSample) add(q promSample) promSample { return promSample{p.sum + q.sum, p.count + q.count} }

// mean returns the histogram's mean, zero when it holds no samples.
func (p promSample) mean() float64 {
	if p.count == 0 {
		return 0
	}
	return p.sum / p.count
}

// scrape reads GET /v1/metrics and returns every histogram's sum and
// count keyed by series name and labels, as in
// `em_resolve_stage_seconds{stage="block"}`.
func (s *server) scrape(c *http.Client) (map[string]promSample, error) {
	req, err := http.NewRequest("GET", s.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	out := map[string]promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		series, labels, _ := strings.Cut(name, "{")
		if labels != "" {
			labels = "{" + labels
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		// A series can appear more than once: emserve registers each
		// route's histogram for the /v1 path and its unprefixed alias
		// under the same labels. Their samples add up.
		if base, ok := strings.CutSuffix(series, "_sum"); ok {
			p := out[base+labels]
			p.sum += v
			out[base+labels] = p
		} else if base, ok := strings.CutSuffix(series, "_count"); ok {
			p := out[base+labels]
			p.count += v
			out[base+labels] = p
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// hostTicks is the machine-wide CPU time of /proc/stat, in clock ticks.
type hostTicks struct{ steal, total int64 }

func (h hostTicks) sub(o hostTicks) hostTicks { return hostTicks{h.steal - o.steal, h.total - o.total} }
func (h hostTicks) add(o hostTicks) hostTicks { return hostTicks{h.steal + o.steal, h.total + o.total} }

// stealShare is the share of CPU time the hypervisor gave to other
// guests while this machine's vCPUs wanted to run.
func (h hostTicks) stealShare() float64 { return ratio(float64(h.steal), float64(h.total)) }

func readHostTicks() (hostTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostTicks{}, err
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}
