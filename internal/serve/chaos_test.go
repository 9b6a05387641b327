package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/atomicx"
)

// copyFile clobbers dst with src's bytes (simulating an operator dropping a
// new graph file in place).
func copyFile(t *testing.T, dst, src string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosReloadUnderLoad hammers every query endpoint from many clients
// while the served file is rewritten and hot-reloaded in a loop. Invariants:
// no request ever errors with anything but the documented statuses, every
// 200 body is a complete, internally consistent JSON document (a torn
// snapshot would produce out-of-range vertices or a census disagreeing with
// itself), and under -race the munmap of each retired snapshot must not
// touch any in-flight read.
func TestChaosReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	// Two source graphs with different vertex counts, so a reload visibly
	// changes the census and out-of-range behaviour mid-flight.
	big, err := gen.RMATCompact(gen.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	small, err := gen.RMATCompact(gen.DefaultRMAT(9, 8, 43))
	if err != nil {
		t.Fatal(err)
	}
	bigPath := filepath.Join(dir, "big.bin")
	smallPath := filepath.Join(dir, "small.bin")
	if err := graph.SaveBinary(bigPath, big); err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveBinary(smallPath, small); err != nil {
		t.Fatal(err)
	}
	served := filepath.Join(dir, "served.bin")
	copyFile(t, served, bigPath)

	s := New(Config{Path: served})
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Source().Retire()

	validVertices := small.NumVertices() // smaller of the two: always valid
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served200 atomicx.Int64
	endpoints := []string{
		fmt.Sprintf("/component?v=%d", validVertices-1),
		fmt.Sprintf("/same?u=0&v=%d", validVertices-1),
		"/census",
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				url := ts.URL + endpoints[(i+n)%len(endpoints)]
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var doc map[string]any
					if err := json.Unmarshal(body, &doc); err != nil {
						t.Errorf("torn 200 body %q: %v", body, err)
						return
					}
					served200.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Shed or mid-drain: allowed under chaos.
				default:
					t.Errorf("GET %s = %d (%q)", url, resp.StatusCode, body)
					return
				}
			}
		}(i)
	}

	// Reload loop: alternate the two graphs through the served path, at
	// least 12 times and until some query has been answered meanwhile. On
	// one CPU a dozen fast reloads can finish before any client goroutine
	// is scheduled; the storm must overlap live traffic to test anything.
	deadline := time.Now().Add(10 * time.Second)
	for k := 0; k < 12 || served200.Load() == 0 && time.Now().Before(deadline); k++ {
		src := bigPath
		if k%2 == 0 {
			src = smallPath
		}
		copyFile(t, served, src)
		if err := s.Reload(context.Background()); err != nil && !errors.Is(err, ErrReloadInProgress) {
			t.Fatalf("reload %d: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()
	if served200.Load() == 0 {
		t.Fatal("no successful queries during the reload storm")
	}
	if ready, reason := s.Ready(); !ready {
		t.Fatalf("not ready after successful reload storm: %s", reason)
	}
	// Each successful reload retired a snapshot; with all readers drained,
	// only the current one may hold a mapping.
	if sn := s.Source().Current(); sn != nil && !sn.Graph.Mapped() {
		t.Error("current snapshot lost its mapping")
	}
}

// TestChaosPoisonedReload is the rollback contract: a corrupt reload file
// must leave the old snapshot serving identical answers, flip /readyz to
// not-ready, and a subsequent good reload must restore readiness and swap.
func TestChaosPoisonedReload(t *testing.T) {
	dir := t.TempDir()
	goodPath := writeTestGraph(t, dir, "good", 42)
	served := filepath.Join(dir, "served.bin")
	copyFile(t, served, goodPath)

	s := New(Config{Path: served})
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Source().Retire()

	stBefore, bodyBefore := get(t, ts.URL+"/census")
	if stBefore != http.StatusOK {
		t.Fatal("census before poisoning failed")
	}
	before := s.Source().Current()

	poisons := map[string][]byte{
		"garbage":          []byte("this is not a graph"),
		"truncated-header": {0x54, 0x4C},
		"empty":            {},
	}
	for name, bytes := range poisons {
		if err := os.WriteFile(served, bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		// The HTTP endpoint reports the failure...
		resp, err := http.Post(ts.URL+"/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: POST /reload = %d (%q), want 500", name, resp.StatusCode, body)
		}
		// ...readiness goes down...
		if st, rbody := get(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable ||
			!strings.Contains(rbody, "reload failed") {
			t.Fatalf("%s: /readyz after poisoned reload = %d %q", name, st, rbody)
		}
		// ...and the old snapshot keeps serving, byte-identical census.
		if st, body := get(t, ts.URL+"/census"); st != http.StatusOK || body != bodyBefore {
			t.Fatalf("%s: census after rollback = %d %q, want the pre-poison response", name, st, body)
		}
		if s.Source().Current() != before {
			t.Fatalf("%s: snapshot pointer changed across failed reload", name)
		}
	}

	// Restore a good file: reload succeeds, readiness returns, pointer swaps.
	copyFile(t, served, goodPath)
	resp, err := http.Post(ts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good reload = %d", resp.StatusCode)
	}
	if st, _ := get(t, ts.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d", st)
	}
	if s.Source().Current() == before {
		t.Fatal("good reload did not swap the snapshot")
	}
}

// TestChaosConcurrentReloadRejected: only one reload runs at a time; the
// racing one gets ErrReloadInProgress (409 over HTTP), never a torn double
// publish.
func TestChaosConcurrentReloadRejected(t *testing.T) {
	path := writeTestGraph(t, t.TempDir(), "g", 42)
	s := New(Config{Path: path})
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Source().Retire()

	const racers = 8
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Reload(context.Background())
		}()
	}
	wg.Wait()
	close(errs)
	var ok, rejected int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrReloadInProgress):
			rejected++
		default:
			t.Errorf("unexpected reload error: %v", err)
		}
	}
	if ok < 1 {
		t.Fatalf("no reload won the race (ok=%d rejected=%d)", ok, rejected)
	}
	if ok+rejected != racers {
		t.Fatalf("ok=%d rejected=%d, want %d total", ok, rejected, racers)
	}
}

// TestChaosSlowClient: a client that dribbles its request cannot hold a
// connection open past the read-header timeout — the server hangs up, so
// slow-loris connections cannot pile up against the drain deadline.
func TestChaosSlowClient(t *testing.T) {
	path := writeTestGraph(t, t.TempDir(), "g", 42)
	s := New(Config{Path: path, RequestTimeout: 100 * time.Millisecond})
	if err := s.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Source().Retire()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Drain(dctx)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then stall.
	if _, err := conn.Write([]byte("GET /component?v=0 HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	// The header deadline fires ~100ms in: the server sends 408 (or nothing)
	// and hangs up. Reading to EOF must therefore finish promptly; hitting
	// our own 5s read deadline means the connection was left open.
	reply, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the stalled connection open past the header deadline")
	}
	// Go answers a timed-out partial header with 408 or 400 depending on
	// where the read stalled; either way it must be an error status.
	if len(reply) > 0 && !strings.Contains(string(reply), "408") && !strings.Contains(string(reply), "400") {
		t.Errorf("stalled connection got %q, want 4xx or hangup", reply)
	}
	if e := time.Since(start); e > 3*time.Second {
		t.Errorf("stalled connection lived %v, want ~the 100ms header timeout", e)
	}
}
