package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"llm4em"
	"llm4em/internal/chaos"
	"llm4em/internal/llm"
)

// fastResilience trips the breaker on the first failure and drains
// the deferred queue within milliseconds, so outage tests converge
// quickly.
func fastResilience() llm4em.ResilienceOptions {
	return llm4em.ResilienceOptions{
		Enabled: true,
		Breaker: llm4em.BreakerOptions{
			ConsecutiveFailures: 1,
			// Long enough that the breaker is still open (not probing
			// half-open) while the test asserts the degraded mode, short
			// enough that recovery converges well inside the wait bound.
			Cooldown: 500 * time.Millisecond,
		},
		RetryInterval: 2 * time.Millisecond,
	}
}

// newResilientServer builds a handler over a store with the given
// client and resilience configuration, every candidate pair routed to
// the LLM (cascade disabled) so outages are guaranteed to matter.
func newResilientServer(t *testing.T, client llm4em.Client, opts llm4em.StoreOptions) *httptest.Server {
	t.Helper()
	opts.Domain = llm4em.Product
	opts.Cascade = llm4em.CascadeOptions{Disable: true}
	store := llm4em.NewStore(client, opts)
	t.Cleanup(func() { store.Close() })
	srv := httptest.NewServer(newHandler(handlerConfig{store: store}))
	t.Cleanup(srv.Close)
	return srv
}

// waitStats polls GET /stats until cond approves the resilience
// block.
func waitStats(t *testing.T, url string, what string, cond func(map[string]any) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, body := getJSON(t, url+"/v1/stats")
		if res, ok := body["resilience"].(map[string]any); ok && cond(res) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerDegradedModeUnderOutage drives the serving path through a
// full LLM outage: resolves keep answering 200 with decisions marked
// deferred, /readyz stays ready but annotated, /stats exposes the
// breaker and queue, and recovery drains the deferred pairs.
func TestServerDegradedModeUnderOutage(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := chaos.Wrap(model, chaos.ClientOptions{})
	srv := newResilientServer(t, wrapped, llm4em.StoreOptions{Resilience: fastResilience()})

	resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records = %d: %v", resp.StatusCode, body)
	}

	wrapped.SetOutage(true)
	resp, body = postJSON(t, srv.URL+"/v1/resolve",
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"},{"name":"price","value":"348.00"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /resolve during outage = %d: %v", resp.StatusCode, body)
	}
	decisions := body["decisions"].([]any)
	if len(decisions) == 0 {
		t.Fatal("resolve returned no decisions")
	}
	for _, d := range decisions {
		dm := d.(map[string]any)
		if dm["deferred"] != true || dm["method"] != string(llm4em.MethodDeferred) {
			t.Fatalf("outage decision not deferred: %v", dm)
		}
	}

	resp, body = getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz during outage = %d, want 200 (degraded replicas stay ready)", resp.StatusCode)
	}
	if body["degraded"] != "llm_breaker_open" {
		t.Fatalf("readyz degraded = %v, want llm_breaker_open", body["degraded"])
	}

	_, body = getJSON(t, srv.URL+"/v1/stats")
	res := body["resilience"].(map[string]any)
	if res["enabled"] != true || res["breaker_state"] != "open" {
		t.Fatalf("stats resilience block during outage: %v", res)
	}
	if res["deferred_pairs"].(float64) == 0 || res["deferred_queue"].(float64) == 0 {
		t.Fatalf("no deferred pairs surfaced in stats: %v", res)
	}

	wrapped.SetOutage(false)
	waitStats(t, srv.URL, "deferred queue drain", func(res map[string]any) bool {
		return res["deferred_queue"].(float64) == 0 && res["redecided"].(float64) > 0
	})
	resp, body = getJSON(t, srv.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz after recovery = %d", resp.StatusCode)
	}
	if _, still := body["degraded"]; still {
		t.Fatalf("readyz still degraded after recovery: %v", body)
	}
}

// gateClient blocks every call until released, so tests control how
// many escalations are in flight.
type gateClient struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func newGateClient() *gateClient {
	return &gateClient{entered: make(chan struct{}, 8), release: make(chan struct{})}
}

func (c *gateClient) Name() string { return "gate" }

func (c *gateClient) Chat(messages []llm.Message) (llm.Response, error) {
	c.entered <- struct{}{}
	<-c.release
	return llm.Response{Content: "No.", PromptTokens: 4, CompletionTokens: 2}, nil
}

// TestServerShedsWith503 fills the escalation slots and queue, then
// checks the next resolve is rejected with 503 and a Retry-After
// hint instead of piling on.
func TestServerShedsWith503(t *testing.T) {
	client := newGateClient()
	opts := llm4em.StoreOptions{Resilience: llm4em.ResilienceOptions{
		Enabled: true,
		Shed:    llm4em.ShedOptions{MaxConcurrent: 1, MaxQueue: 1},
	}}
	srv := newResilientServer(t, client, opts)

	resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records = %d: %v", resp.StatusCode, body)
	}

	// Distinct titles: identical prompts would coalesce in the
	// engine's single-flight cache and never occupy a second slot.
	resolveBody := func(i byte) string {
		return `{"id":"qs` + string('0'+i) + `","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black v` + string('0'+i) + `"}]}`
	}
	statuses := make(chan int, 2)
	var wg sync.WaitGroup
	for i := byte(1); i <= 2; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/resolve", "application/json", strings.NewReader(resolveBody(i)))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}
	// First escalation holds the slot; the second waits in the queue.
	<-client.entered
	waitStats(t, srv.URL, "one queued escalation", func(res map[string]any) bool {
		return res["waiting"].(float64) == 1
	})

	// Slot and queue full: the third resolve is shed immediately.
	resp, body = postJSON(t, srv.URL+"/v1/resolve", resolveBody(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed resolve = %d: %v, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}

	close(client.release) // let the two held resolves finish
	wg.Wait()
	close(statuses)
	for s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("held resolve finished with %d", s)
		}
	}
}

// TestServerResolveTimeout pins the two deadline behaviours: with
// resilience enabled an expired escalation degrades into deferred
// local verdicts (200), and without it the request surfaces 504.
func TestServerResolveTimeout(t *testing.T) {
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		t.Fatal(err)
	}
	build := func(resilient bool) *httptest.Server {
		wrapped := chaos.Wrap(model, chaos.ClientOptions{HangRate: 1})
		store := llm4em.NewStore(wrapped, llm4em.StoreOptions{
			Domain:  llm4em.Product,
			Cascade: llm4em.CascadeOptions{Disable: true},
			Resilience: llm4em.ResilienceOptions{
				Enabled:       resilient,
				RetryInterval: time.Hour, // keep the re-escalator quiet
			},
		})
		t.Cleanup(func() { store.Close() })
		srv := httptest.NewServer(newHandler(handlerConfig{
			store:          store,
			resolveTimeout: 50 * time.Millisecond,
		}))
		t.Cleanup(srv.Close)
		resp, body := postJSON(t, srv.URL+"/v1/records", seedBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /records = %d: %v", resp.StatusCode, body)
		}
		return srv
	}
	query := `{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera black"}]}`

	srv := build(true)
	resp, body := postJSON(t, srv.URL+"/v1/resolve", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve with deadline+resilience = %d: %v, want 200", resp.StatusCode, body)
	}
	for _, d := range body["decisions"].([]any) {
		if dm := d.(map[string]any); dm["deferred"] != true {
			t.Fatalf("deadline-expired decision not deferred: %v", dm)
		}
	}

	srv = build(false)
	resp, body = postJSON(t, srv.URL+"/v1/resolve", query)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("resolve with deadline, no resilience = %d: %v, want 504", resp.StatusCode, body)
	}
}
