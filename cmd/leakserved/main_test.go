package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cmpleak/internal/service"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		addr    string
		jobs    int
		queue   int
		cacheMB int
		wantErr string // "" = valid
	}{
		{name: "defaults", addr: ":8080", jobs: 4, queue: 8},
		{name: "host and port", addr: "127.0.0.1:0", jobs: 1, queue: 1},
		{name: "unbounded cache", addr: ":8080", jobs: 2, queue: 2, cacheMB: 0},
		{name: "bounded cache", addr: ":8080", jobs: 2, queue: 2, cacheMB: 64},
		{name: "empty addr", addr: "", jobs: 4, queue: 8, wantErr: "-addr"},
		{name: "zero jobs", addr: ":8080", jobs: 0, queue: 8, wantErr: "-jobs"},
		{name: "negative jobs", addr: ":8080", jobs: -3, queue: 8, wantErr: "-jobs"},
		{name: "zero queue", addr: ":8080", jobs: 4, queue: 0, wantErr: "-queue"},
		{name: "negative cache budget", addr: ":8080", jobs: 4, queue: 8, cacheMB: -1, wantErr: "-cache-max-mb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.addr, tc.jobs, tc.queue, tc.cacheMB)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%q, %d, %d, %d) = %v, want nil",
						tc.addr, tc.jobs, tc.queue, tc.cacheMB, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags(%q, %d, %d, %d) = %v, want error naming %s",
					tc.addr, tc.jobs, tc.queue, tc.cacheMB, err, tc.wantErr)
			}
		})
	}
}

// TestShutdownEndsOpenStreams shuts the daemon down while a client streams
// the events of a long run: shutdown must cancel the run rather than wait
// out the HTTP shutdown deadline behind the open stream, and the stream
// must end on the run's canceled event.
func TestShutdownEndsOpenStreams(t *testing.T) {
	data, err := os.ReadFile("../../scenarios/paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["scale"] = 0.25 // 192 jobs: far longer than the test waits
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1})
	ctx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, svc, svc.Handler(), io.Discard) }()

	base := "http://" + ln.Addr().String() + "/v1/runs"
	resp, err := http.Post(base, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.RunStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d (%v), want 202", resp.StatusCode, err)
	}
	stream, err := http.Get(base + "/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	sc := bufio.NewScanner(stream.Body)
	var last service.Event
	start := time.Time{}
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if last.Type == "job" && start.IsZero() {
			// The run is simulating: shut down under the open stream.
			start = time.Now()
			shutdown()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if start.IsZero() {
		t.Fatalf("stream ended on %+v before any job finished", last)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return within 10 s")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("shutdown took %v, want a few seconds", took)
	}
	if last.Type != "state" || last.State != service.StateCanceled {
		t.Fatalf("stream ended on %+v, want the run's canceled state event", last)
	}
}

// TestPprofFlag checks that /debug/pprof/ exists only with -pprof, and that
// the service's own routes are served either way.
func TestPprofFlag(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	for _, tc := range []struct {
		withPprof bool
		want      int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		h := handler(svc, tc.withPprof)
		for path, want := range map[string]int{
			"/debug/pprof/":        tc.want,
			"/debug/pprof/cmdline": tc.want,
			"/healthz":             http.StatusOK,
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != want {
				t.Errorf("-pprof=%v: GET %s = %d, want %d", tc.withPprof, path, rec.Code, want)
			}
		}
	}
}
