package server

// Durability at the HTTP layer: ingest refused with 503 + Retry-After
// while draining, and /statsz's WAL gauges reflecting a durable engine
// across a restart.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
)

// TestIngestRefusedWhileDraining: a draining node must not accept a
// write it may never persist; clients get 503 with a Retry-After hint
// while reads keep draining normally.
func TestIngestRefusedWhileDraining(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	s.draining.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
		"adds": []map[string]string{{"s": "Angela Merkel", "p": "awarded", "o": "Nobel Prize"}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" {
		t.Fatalf("no error body: %s", data)
	}
	// The refused batch must not have touched the graph.
	if st := getStatsz(t, ts); st.Series["nc_graph_epoch"] != 0 {
		t.Fatalf("refused ingest moved the epoch to %v", st.Series["nc_graph_epoch"])
	}
	// Reads are still served while draining (they ride the drain window).
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search while draining: status %d: %s", resp.StatusCode, data)
	}
}

// TestStatszWALGauges: a durable engine surfaces its WAL through
// /statsz, and a restart over the same directory reports the replayed
// records.
func TestStatszWALGauges(t *testing.T) {
	dir := t.TempDir()
	opt := notable.Options{ContextSize: 6, Walks: 5000, Seed: 3}
	eng, _, err := notable.NewDurableEngine(testGraph(), opt, notable.Durability{
		WALDir: dir, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, quietCfg())
	ts := httptest.NewServer(s.Handler())

	if st := getStatsz(t, ts); st.Series["nc_wal_enabled"] != 1 || st.Series["nc_wal_records"] != 0 {
		t.Fatalf("fresh durable engine: %v", st.Series)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
		"adds": []map[string]string{{"s": "Angela Merkel", "p": "awarded", "o": "Nobel Prize"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, data)
	}
	st := getStatsz(t, ts)
	if st.Series["nc_wal_records"] != 1 || st.Series["nc_wal_bytes"] == 0 || st.Series["nc_wal_recovered_records"] != 0 {
		t.Fatalf("after one durable ingest: %v", st.Series)
	}
	ts.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory: the batch is recovered and the
	// gauges say so.
	eng2, info, err := notable.NewDurableEngine(testGraph(), opt, notable.Durability{
		WALDir: dir, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if info.RecordsReplayed != 1 || info.Epoch != 1 {
		t.Fatalf("restart recovered %+v", info)
	}
	s2 := New(eng2, quietCfg())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st = getStatsz(t, ts2)
	if st.Series["nc_wal_enabled"] != 1 || st.Series["nc_wal_recovered_records"] != 1 || st.Series["nc_graph_epoch"] != 1 {
		t.Fatalf("statsz after restart: %v", st.Series)
	}

	// Non-durable engines report the gauges off.
	s3 := New(testEngine(notable.Options{}), quietCfg())
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if st := getStatsz(t, ts3); st.Series["nc_wal_enabled"] != 0 || st.Series["nc_wal_bytes"] != 0 {
		t.Fatalf("non-durable engine reports WAL gauges: %v", st.Series)
	}
}
