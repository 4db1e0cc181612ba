package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("srv_total", "help").Add(9)
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body, resp := get(t, "http://"+srv.Addr()+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	if !strings.Contains(body, "srv_total 9") {
		t.Errorf("metrics body missing series:\n%s", body)
	}
}

func TestServerMetricsWithoutRegistry(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, resp := get(t, "http://"+srv.Addr()+"/metrics")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status without a registry = %d, want 503", resp.StatusCode)
	}
}

func TestServerSetRegistrySwaps(t *testing.T) {
	a := NewRegistry()
	a.Counter("gen_total", "help").Add(1)
	srv, err := NewServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	b := NewRegistry()
	b.Counter("gen_total", "help").Add(2)
	srv.SetRegistry(b)
	body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "gen_total 2") {
		t.Errorf("swap did not take: %s", body)
	}
}

func TestServerStatusz(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetStatus(func() any { return map[string]int{"shards": 2} })

	body, resp := get(t, "http://"+srv.Addr()+"/statusz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var env struct {
		UptimeSeconds float64        `json:"uptime_seconds"`
		Status        map[string]int `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	if env.Status["shards"] != 2 {
		t.Errorf("status payload = %v", env.Status)
	}
}

func TestServerPprofIndex(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, resp := get(t, "http://"+srv.Addr()+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index status %d body %.80q", resp.StatusCode, body)
	}
}
