package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/fragmd/fragmd/internal/molecule"
)

// End-to-end through the subcommand: start "fragmd serve" on an
// ephemeral port, submit a job over real HTTP, watch it finish, then
// deliver one SIGTERM and require a clean (exit 0) drain.
func TestRunServeSmokeAndSignalDrain(t *testing.T) {
	dir := t.TempDir()
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- runServe([]string{"-listen", "127.0.0.1:0", "-state-dir", dir}, &out, &errOut)
	}()

	addrRe := regexp.MustCompile(`serving on (\S+)`)
	var base string
	waitFor(t, "listen address", func() bool {
		m := addrRe.FindStringSubmatch(out.String())
		if m == nil {
			return false
		}
		base = "http://" + m[1]
		return true
	})

	var xyz strings.Builder
	if err := molecule.WaterCluster(2).WriteXYZ(&xyz); err != nil {
		t.Fatal(err)
	}
	spec := map[string]interface{}{
		"tenant": "smoke", "xyz": xyz.String(), "potential": "lj", "steps": 3,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || view.ID == "" {
		t.Fatalf("submit: status %d, view %+v", resp.StatusCode, view)
	}

	waitFor(t, "job completion", func() bool {
		r, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		var v struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			return false
		}
		if v.Status == "failed" || v.Status == "cancelled" {
			t.Fatalf("job reached %q", v.Status)
		}
		return v.Status == "done"
	})

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe returned %v, want nil (exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not drain after SIGTERM\nout:\n%s\nerr:\n%s", out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "draining") {
		t.Fatalf("missing drain diagnostic:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "drained; restart with the same -state-dir") {
		t.Fatalf("missing drain completion message:\n%s", out.String())
	}
}

// Usage errors: -state-dir is mandatory, and a bad fleet evaluator spec
// is rejected before anything listens.
func TestRunServeValidation(t *testing.T) {
	cases := [][]string{
		{},
		{"-state-dir", "", "-listen", "127.0.0.1:0"},
		{"-state-dir", "x", "-fleet-listen", "127.0.0.1:0", "-potential", "nope"},
	}
	for _, argv := range cases {
		var out, errOut bytes.Buffer
		if err := runServe(argv, &out, &errOut); err != errUsage {
			t.Fatalf("runServe(%q) = %v, want errUsage", argv, err)
		}
	}
}

// The serve subcommand must be reachable through the top-level CLI
// dispatcher.
func TestRunDispatchesServe(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"serve"}, &out, &errOut); err != errUsage {
		t.Fatalf("run([serve]) = %v, want errUsage (missing -state-dir)", err)
	}
	if !strings.Contains(errOut.String(), "-state-dir is required") {
		t.Fatalf("missing diagnostic:\n%s", errOut.String())
	}
}

// The serve HTTP server bounds header reads and idle keep-alives but
// sets no whole-request read or write deadline, which would cut the
// NDJSON stream. A client that never finishes its headers is dropped
// once the header timeout passes.
func TestServeHTTPServerTimeouts(t *testing.T) {
	srv := newServeHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, serveReadHeaderTimeout)
	}
	if srv.IdleTimeout != serveIdleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, serveIdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; both must stay 0 for the stream endpoint",
			srv.ReadTimeout, srv.WriteTimeout)
	}

	// Slow client, with the header timeout shortened so the test is fast.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a header-stalled connection open: %v", err)
	}
}
