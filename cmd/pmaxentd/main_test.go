package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
)

// TestServeQuantifyAndDrain boots the daemon on an ephemeral port, runs
// a quantify round-trip, then cancels the context (the SIGTERM path) and
// expects a clean drain.
func TestServeQuantifyAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			addr:         "127.0.0.1:0",
			timeout:      30 * time.Second,
			retryAfter:   time.Second,
			drainTimeout: 10 * time.Second,
			cacheSize:    4,
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	var pub bytes.Buffer
	if err := bucket.WriteJSON(&pub, d); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"published": %s}`, pub.String())
	qresp, err := http.Post(base+"/v1/quantify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("quantify = %d: %s", qresp.StatusCode, raw)
	}
	var parsed struct {
		Cache  string `json:"cache"`
		Solver struct {
			Converged bool `json:"converged"`
		} `json:"solver"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, raw)
	}
	if parsed.Cache != "miss" || !parsed.Solver.Converged {
		t.Fatalf("unexpected response: %s", raw)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
}

// TestHistorySurvivesRestart boots the daemon with -history-dir, solves
// once, restarts it on the same directory, and expects /v1/history to
// serve the first generation's record.
func TestHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		addr:         "127.0.0.1:0",
		timeout:      30 * time.Second,
		retryAfter:   time.Second,
		drainTimeout: 10 * time.Second,
		cacheSize:    4,
		historyDir:   dir,
		historyKeep:  1024,
		historyFsync: "always",
		doneRing:     8,
	}
	boot := func() (string, context.CancelFunc, chan error) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(ctx, opts, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, cancel, done
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
		panic("unreachable")
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}

	d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	var pub bytes.Buffer
	if err := bucket.WriteJSON(&pub, d); err != nil {
		t.Fatal(err)
	}

	base, cancel, done := boot()
	qresp, err := http.Post(base+"/v1/quantify", "application/json",
		strings.NewReader(fmt.Sprintf(`{"published": %s}`, pub.String())))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("quantify = %d", qresp.StatusCode)
	}
	reqID := qresp.Header.Get("X-Request-Id")
	stop(cancel, done)

	base, cancel, done = boot()
	defer stop(cancel, done)
	hresp, err := http.Get(base + "/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/history after restart = %d: %s", hresp.StatusCode, raw)
	}
	var hist struct {
		Records []struct {
			RequestID string `json:"request_id"`
			Outcome   string `json:"outcome"`
		} `json:"records"`
	}
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Records) != 1 || hist.Records[0].RequestID != reqID || hist.Records[0].Outcome != "ok" {
		t.Fatalf("recovered history does not match the pre-restart solve (request %q): %s", reqID, raw)
	}
}

// TestParseAlgorithmRejectsUnknown: an unknown -algorithm stops the
// daemon before it binds its listener.
func TestParseAlgorithmRejectsUnknown(t *testing.T) {
	ready := make(chan string, 1)
	err := run(context.Background(), options{addr: "127.0.0.1:0", algorithm: "simplex"}, ready)
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "simplex"`) {
		t.Fatalf("run = %v, want unknown-algorithm error", err)
	}
	if len(ready) != 0 {
		t.Fatal("daemon listened despite the bad algorithm")
	}
}
