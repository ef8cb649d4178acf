package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// startDaemon launches run in a goroutine and returns its base URL plus a
// stop function that cancels the daemon and returns its exit error.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	readyCh := make(chan string, 1)
	errCh := make(chan error, 1)
	var out syncBuffer
	go func() {
		errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, func(u string) { readyCh <- u })
	}()
	select {
	case u := <-readyCh:
		return u, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not stop after cancel")
				return nil
			}
		}
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v\noutput:\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonEndToEnd is the in-process twin of the CI smoke job: start the
// daemon, submit a report, query a score, stream an epoch summary, download
// a snapshot, and shut down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	url, stop := startDaemon(t, "-scenario", "baseline", "-epoch-interval", "5ms")
	client := &http.Client{Timeout: 30 * time.Second}

	// Liveness.
	resp, err := client.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit a report.
	resp, err = client.Post(url+"/v1/reports", "application/json",
		strings.NewReader(`{"rater":4,"ratee":9,"value":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("report: %d", resp.StatusCode)
	}

	// Query a score.
	resp, err = client.Get(url + "/v1/scores/9")
	if err != nil {
		t.Fatal(err)
	}
	var score struct {
		User  int     `json:"user"`
		Score float64 `json:"score"`
		Rank  int     `json:"rank"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&score); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if score.User != 9 || score.Rank < 1 {
		t.Fatalf("score reply: %+v", score)
	}

	// Stream one epoch summary.
	resp, err = client.Get(url + "/v1/epochs/stream?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawEvent bool
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			sawEvent = true
		}
	}
	resp.Body.Close()
	if !sawEvent {
		t.Fatal("stream produced no epoch event")
	}

	// Snapshot.
	resp, err = client.Get(url + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.CreateTemp(t.TempDir(), "snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	blob.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Trustnet-Epoch") == "" {
		t.Fatalf("snapshot: status %d, epoch header %q", resp.StatusCode, resp.Header.Get("X-Trustnet-Epoch"))
	}

	if err := stop(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// TestDaemonResumeFromSnapshot: a snapshot downloaded from one daemon boots
// another, which resumes from the recorded epoch.
func TestDaemonResumeFromSnapshot(t *testing.T) {
	url, stop := startDaemon(t, "-scenario", "baseline", "-manual")
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < 3; i++ {
		resp, err := client.Post(url+"/v1/advance", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance %d: %d", i, resp.StatusCode)
		}
	}
	resp, err := client.Get(url + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "run.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f.Close()
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	url2, stop2 := startDaemon(t, "-scenario", "baseline", "-manual", "-resume", snap)
	resp, err = client.Get(url2 + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Epoch int `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Epoch != 3 {
		t.Fatalf("resumed daemon reports epoch %d, want 3", health.Epoch)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonBudgetExhaustedKeepsServing: a daemon whose budget runs out
// stays up for queries and still exits 0 on signal.
func TestDaemonBudgetExhaustedKeepsServing(t *testing.T) {
	url, stop := startDaemon(t, "-scenario", "baseline", "-max-epochs", "2", "-epoch-interval", "0s")
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Epoch int `json:"epoch"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if health.Epoch == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget never exhausted (epoch %d)", health.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Still answering after the loop ended.
	resp, err := client.Get(url + "/v1/top?k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top after budget end: %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scenario", "no-such-scenario"},
		{"-bogus"},
		{"-resume", filepath.Join(t.TempDir(), "missing.snap")},
	}
	for _, args := range cases {
		var out syncBuffer
		err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), &out, nil)
		if err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestDaemonOldSnapshotClearError(t *testing.T) {
	type v1State struct{ Engine string }
	type v1Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v1State
	}
	snap := filepath.Join(t.TempDir(), "old.snap")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v1Snapshot{Version: 1, Peers: 100, Mechanism: "eigentrust"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-resume", snap}, &out, nil)
	if err == nil {
		t.Fatal("old-version snapshot accepted")
	}
	if !strings.Contains(err.Error(), "snapshot version mismatch (got 1, want 3)") {
		t.Fatalf("resume error %q does not name the version mismatch", err)
	}
}
