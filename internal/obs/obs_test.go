package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	// A value exactly on a bound belongs to that bound's bucket (le is
	// inclusive, as in Prometheus).
	h.ObserveSeconds(0.001)
	h.ObserveSeconds(0.01)
	h.ObserveSeconds(0.1)
	// Just past each bound → next bucket; past the last → +Inf.
	h.ObserveSeconds(0.0011)
	h.ObserveSeconds(0.11)
	s := h.Snapshot()
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count: got %d want 5", s.Count)
	}
}

func TestHistogramQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50: got %v want 0", got)
	}
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		// The single sample lives in the bucket containing 5ms; the
		// estimate must fall within that bucket.
		if got < 0 || got > 2*5.12e-3 {
			t.Errorf("single-sample q%.2f = %v, outside its bucket", q, got)
		}
	}
	if s.Quantile(1) < s.Quantile(0) {
		t.Error("quantile not monotone on single sample")
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// Uniform fill of one bucket: quantiles interpolate linearly.
	h := NewHistogram([]float64{1, 2, 3})
	for i := 0; i < 100; i++ {
		h.ObserveSeconds(1.5) // all in (1, 2]
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 of uniform bucket: got %v want 1.5", got)
	}
	if got := s.Quantile(1.0); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("p100: got %v want 2.0 (bucket upper bound)", got)
	}
	// Exact at bucket boundary: 50 in (0,1], 50 in (1,2] → p50 = 1.0.
	h2 := NewHistogram([]float64{1, 2, 3})
	for i := 0; i < 50; i++ {
		h2.ObserveSeconds(0.5)
		h2.ObserveSeconds(1.5)
	}
	if got := h2.Snapshot().Quantile(0.5); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("boundary p50: got %v want 1.0", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001})
	h.ObserveSeconds(10)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("overflow bucket: got %v", s.Counts)
	}
	if got := s.Quantile(0.99); got != 0.001 {
		t.Errorf("overflow quantile floor: got %v want 0.001", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Concurrent observers racing snapshot readers: run under -race in
	// CI. Every observation must be accounted for at the end, and every
	// intermediate snapshot must be internally consistent
	// (sum(buckets) == Count by construction).
	h := NewHistogram(nil)
	const writers, perWriter = 8, 5000
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var tot int64
			for _, c := range s.Counts {
				tot += c
			}
			if tot != s.Count {
				t.Errorf("torn snapshot: bucket total %d != count %d", tot, s.Count)
				return
			}
		}
	}()
	writerWg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond * time.Duration(i%100+1))
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("final count: got %d want %d", got, writers*perWriter)
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter: got %d want 5", c.Value())
	}
	// Func series are read at every scrape, not at registration.
	r := NewRegistry()
	level, total := 7.0, 1e7
	r.NewGaugeFunc("nc_level", "Level.", func() float64 { return level })
	r.NewCounterFunc("nc_done_total", "Done.", func() float64 { return total })
	level, total = 4, 12345678
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Counters print every digit; an exponent would be a different string
	// for the same count.
	for _, want := range []string{"nc_level 4\n", "# TYPE nc_done_total counter", "nc_done_total 12345678\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("nc_requests_total", "Requests served.", "endpoint", "search", "status", "2xx")
	c.Add(3)
	c2 := r.NewCounter("nc_requests_total", "Requests served.", "endpoint", "search", "status", "5xx")
	c2.Inc()
	r.NewCounterFunc("nc_things_total", "Things.", func() float64 { return 42 })
	r.NewGaugeFunc(
		"nc_computed", "Computed gauge.", func() float64 { return 1.5 })
	h := r.NewHistogram("nc_stage_seconds", "Stage latency.", "stage", "ppr_solve")
	h.Observe(3 * time.Millisecond)
	h.Observe(50 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP nc_requests_total Requests served.",
		"# TYPE nc_requests_total counter",
		`nc_requests_total{endpoint="search",status="2xx"} 3`,
		`nc_requests_total{endpoint="search",status="5xx"} 1`,
		"# TYPE nc_things_total counter",
		"nc_things_total 42",
		"nc_computed 1.5",
		"# TYPE nc_stage_seconds histogram",
		`nc_stage_seconds_bucket{stage="ppr_solve",le="+Inf"} 2`,
		`nc_stage_seconds_count{stage="ppr_solve"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Structural parse: every non-comment line is `name{labels} value`
	// with a numeric value, and histogram buckets are cumulative.
	sc := bufio.NewScanner(strings.NewReader(out))
	var lastBucket int64 = -1
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &f); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		if strings.HasPrefix(line, "nc_stage_seconds_bucket") {
			if int64(f) < lastBucket {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastBucket = int64(f)
		}
	}

}

// TestCollect: the JSON rendering carries exactly the exposition's
// counter and gauge samples under their exposition names, and one
// summary per histogram series — never one merged across a family.
func TestCollect(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("nc_requests_total", "Requests.", "code", "2xx").Add(3)
	r.NewGaugeFunc("nc_level", "Level.", func() float64 { return 0.25 })
	fast := r.NewHistogram("nc_stage_seconds", "Stage latency.", "stage", "fast")
	slow := r.NewHistogram("nc_stage_seconds", "Stage latency.", "stage", "slow")
	fast.Observe(time.Millisecond)
	slow.Observe(time.Second)
	slow.Observe(time.Second)
	other := NewRegistry()
	other.NewHistogram("nc_other_seconds", "Other.")

	st := Collect(r, other)
	if len(st.Series) != 2 || st.Series[`nc_requests_total{code="2xx"}`] != 3 || st.Series["nc_level"] != 0.25 {
		t.Errorf("series: %v", st.Series)
	}
	f, s := st.Histograms[`nc_stage_seconds{stage="fast"}`], st.Histograms[`nc_stage_seconds{stage="slow"}`]
	if len(st.Histograms) != 3 || f.Count != 1 || s.Count != 2 || f.P50MS >= 2 || s.P50MS < 500 {
		t.Errorf("histograms: %+v", st.Histograms)
	}
	if _, ok := st.Histograms["nc_other_seconds"]; !ok {
		t.Errorf("second registry's histogram missing: %+v", st.Histograms)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("nc_weird", "w.", "k", "a\"b\\c\nd")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `nc_weird{k="a\"b\\c\nd"} 0`) {
		t.Errorf("bad escaping: %s", buf.String())
	}
}

func TestAccessLogBasicAndWraparound(t *testing.T) {
	l := NewAccessLog(16)
	if l.Cap() != 16 {
		t.Fatalf("cap: got %d", l.Cap())
	}
	for i := 0; i < 40; i++ {
		l.Add(Record{Status: i})
	}
	if l.Len() != 16 {
		t.Fatalf("len after wrap: got %d want 16", l.Len())
	}
	if l.Total() != 40 {
		t.Fatalf("total: got %d want 40", l.Total())
	}
	recs := l.Drain(0)
	if len(recs) != 16 {
		t.Fatalf("drain: got %d records want 16", len(recs))
	}
	// Chronological tail: statuses 24..39.
	for i, r := range recs {
		if r.Status != 24+i {
			t.Fatalf("drain[%d].Status = %d, want %d (tail not chronological)", i, r.Status, 24+i)
		}
	}
	// Bounded drain returns the newest max in order.
	recs = l.Drain(4)
	if len(recs) != 4 || recs[0].Status != 36 || recs[3].Status != 39 {
		t.Fatalf("bounded drain: %+v", recs)
	}
	// Drain does not consume.
	if again := l.Drain(4); len(again) != 4 || again[0].Status != 36 {
		t.Fatalf("second drain differs: %+v", again)
	}
}

func TestAccessLogSizeRounding(t *testing.T) {
	if got := NewAccessLog(0).Cap(); got != 16 {
		t.Errorf("min size: got %d want 16", got)
	}
	if got := NewAccessLog(100).Cap(); got != 128 {
		t.Errorf("round up: got %d want 128", got)
	}
}

func TestAccessLogTornReads(t *testing.T) {
	// Concurrent writers wrapping the ring many times while a reader
	// drains: every drained record must be internally consistent. Each
	// writer stamps Status and DurationMicros with the same value, so a
	// torn record would show a mismatch. Run under -race in CI.
	l := NewAccessLog(16)
	const writers, perWriter = 8, 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range l.Drain(0) {
				if int64(r.Status) != r.DurationMicros {
					t.Errorf("torn record: status %d duration %d", r.Status, r.DurationMicros)
					return
				}
			}
		}
	}()
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := w*perWriter + i
				l.Add(Record{Status: v, DurationMicros: int64(v), Method: "GET", Path: "/v1/search"})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWg.Wait()
	if l.Total() != writers*perWriter {
		t.Fatalf("total: got %d want %d", l.Total(), writers*perWriter)
	}
}

func TestHotPathAllocs(t *testing.T) {
	// The whole point of the package: recording must not allocate.
	h := NewHistogram(nil)
	var c Counter
	l := NewAccessLog(64)
	rec := Record{Method: "GET", Path: "/v1/search", RequestID: "r-1", Status: 200, DurationMicros: 12}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(3 * time.Millisecond)
		c.Inc()
		l.Add(rec)
	}); n != 0 {
		t.Fatalf("hot path allocates: %v allocs/op", n)
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot().Summarize()
	if s.Count != 100 {
		t.Errorf("count: got %d", s.Count)
	}
	if s.P50MS <= 0 || s.P99MS < s.P50MS {
		t.Errorf("quantiles not sane: %+v", s)
	}
	if math.Abs(s.MeanMS-10) > 1e-6 {
		t.Errorf("mean: got %v want 10", s.MeanMS)
	}
}
