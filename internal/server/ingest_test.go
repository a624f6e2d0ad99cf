package server

// /v1/ingest tests: live mutations over HTTP — epoch advance, statsz
// gauges, search reflecting the new triples, error mapping, and
// concurrent searches racing ingests.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
	"repro/internal/obs"
)

// getStatsz GETs /statsz and decodes its series and histogram summaries.
func getStatsz(t *testing.T, ts *httptest.Server) obs.Stats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st obs.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestIngestEndpoint: a triple batch advances the epoch, shows up in
// /statsz, and changes what /v1/search answers — all without a restart.
func TestIngestEndpoint(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if st := getStatsz(t, ts); st.Series["nc_graph_epoch"] != 0 {
		t.Fatalf("fresh server at epoch %v", st.Series["nc_graph_epoch"])
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
		"adds": []map[string]string{
			{"s": "Angela Merkel", "p": "awarded", "o": "Nobel Prize"},
			{"s": "Barack Obama", "p": "awarded", "o": "Nobel Prize"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	var ir ingestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Epoch != 1 || ir.OverlayAdds == 0 {
		t.Fatalf("ingest response = %+v", ir)
	}
	st := getStatsz(t, ts)
	if st.Series["nc_graph_epoch"] != 1 || st.Series["nc_graph_overlay_adds"] == 0 {
		t.Fatalf("statsz after ingest = epoch %v, overlay_adds %v", st.Series["nc_graph_epoch"], st.Series["nc_graph_overlay_adds"])
	}

	// The new label is part of the very next search's report.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Angela Merkel", "Barack Obama"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, data)
	}
	var sr searchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, c := range sr.Characteristics {
		if c.Label == "awarded" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("ingested label missing from search report: %s", data)
	}

	// The new node resolves by name too.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
		"entities": []string{"Nobel Prize", "Angela Merkel"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with new node: status %d: %s", resp.StatusCode, data)
	}

	// Deleting the triples bumps the epoch again.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
		"dels": []map[string]string{
			{"s": "Barack Obama", "p": "awarded", "o": "Nobel Prize"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete ingest status %d: %s", resp.StatusCode, data)
	}
	if st := getStatsz(t, ts); st.Series["nc_graph_epoch"] != 2 {
		t.Fatalf("epoch after delete = %v, want 2", st.Series["nc_graph_epoch"])
	}
}

// TestIngestErrorMapping: malformed batches answer 400 and leave the
// graph untouched.
func TestIngestErrorMapping(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body any
	}{
		{"empty batch", map[string]any{}},
		{"empty field", map[string]any{
			"adds": []map[string]string{{"s": "", "p": "met", "o": "x"}},
		}},
		{"unknown field", map[string]any{
			"adds":    []map[string]string{{"s": "a", "p": "b", "o": "c"}},
			"triples": []string{"nope"},
		}},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
	}
	if st := getStatsz(t, ts); st.Series["nc_graph_epoch"] != 0 {
		t.Fatalf("rejected batches moved the epoch to %v", st.Series["nc_graph_epoch"])
	}

	// GET is not allowed.
	resp, err := ts.Client().Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest: status %d, want 405", resp.StatusCode)
	}
}

// TestIngestConcurrentWithSearch races searches against ingests through
// the full HTTP stack: every search must answer 200 with a non-empty
// result whichever epoch it pinned.
func TestIngestConcurrentWithSearch(t *testing.T) {
	s := New(testEngine(notable.Options{}), quietCfg())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", map[string]any{
					"entities": []string{"Angela Merkel", "Barack Obama"},
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search during ingest: status %d: %s", resp.StatusCode, data)
					return
				}
				var sr searchResponse
				if err := json.Unmarshal(data, &sr); err != nil {
					t.Error(err)
					return
				}
				if len(sr.Context) == 0 {
					t.Error("empty context during ingest")
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", map[string]any{
			"adds": []map[string]string{
				{"s": "Angela Merkel", "p": "visited", "o": "Country " + string(rune('A'+i))},
			},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	close(stop)
	wg.Wait()
	if st := getStatsz(t, ts); st.Series["nc_graph_epoch"] != 5 {
		t.Fatalf("epoch after 5 ingests = %v", st.Series["nc_graph_epoch"])
	}
}
