package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// A Registry holds named metric families and renders them in Prometheus
// text exposition format. Registration happens once, at construction
// time of whatever owns the metrics (engine, server, router); the hot
// path never touches the registry — it holds the Counter/Histogram
// pointers registration returned, or the registry reads a total the
// owner already keeps through a scrape-time func. The registry is only
// walked at scrape time, under a mutex that instrumented code never
// contends.
//
// Label sets are prerendered at registration: a series registered as
// NewCounter("nc_requests_total", help, "endpoint", "search", "status",
// "2xx") stores the literal `{endpoint="search",status="2xx"}` string
// once and never formats labels again.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one metric name: its type, help text, and every labeled
// series registered under it.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// series is one labeled instance within a family: value for counters and
// gauges (read at scrape time — a held Counter's load, or a caller's
// func), hist for histograms.
type series struct {
	labels string // prerendered `{k="v",...}` or "" for unlabeled
	value  func() float64
	hist   *Histogram
}

// renderLabels formats alternating key/value pairs into the canonical
// `{k="v",...}` form (empty string for no labels). Values are escaped
// per the exposition format (backslash, quote, newline).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	out := "{"
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			out += ","
		}
		out += kv[i] + `="` + escapeLabel(kv[i+1]) + `"`
	}
	return out + "}"
}

func escapeLabel(v string) string {
	// Fast path: nothing to escape (the common case for our static labels).
	clean := true
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			clean = false
			break
		}
	}
	if clean {
		return v
	}
	out := make([]byte, 0, len(v)+4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// register appends s to the family name, creating it on first use.
func (r *Registry) register(name, help string, kind metricKind, labelPairs []string, s *series) {
	s.labels = renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different type")
	}
	f.series = append(f.series, s)
}

// NewCounter registers and returns a counter series. labelPairs is an
// alternating key/value list; series under one name must use it
// consistently. Call once at construction and keep the pointer.
func (r *Registry) NewCounter(name, help string, labelPairs ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labelPairs, &series{value: func() float64 { return float64(c.Value()) }})
	return c
}

// NewCounterFunc registers a counter whose value fn reads at each scrape
// from a total someone else already keeps (cache hits, WAL records), so
// the code that counts pays nothing extra. fn must be monotone and safe
// to call from the scrape goroutine.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.register(name, help, kindCounter, labelPairs, &series{value: fn})
}

// NewGaugeFunc registers a gauge whose value is computed by fn at each
// scrape (runtime.NumGoroutine, heap bytes, follower lag). fn must be
// safe to call from the scrape goroutine.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.register(name, help, kindGauge, labelPairs, &series{value: fn})
}

// NewHistogram registers and returns a latency histogram series on
// DefaultLatencyBounds.
func (r *Registry) NewHistogram(name, help string, labelPairs ...string) *Histogram {
	h := NewHistogram(nil)
	r.register(name, help, kindHistogram, labelPairs, &series{hist: h})
	return h
}

// Bool renders a flag as a gauge value: 1 for true, 0 for false.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// families copies the family list and each family's series slice under
// the lock, so a scrape racing a late registration (a follower arming
// its gauges) walks a consistent prefix.
func (r *Registry) families() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, len(r.fams))
	for i, f := range r.fams {
		out[i] = *f
	}
	return out
}

// Stats is the JSON rendering of one or more registries — the GET
// /statsz document. Every counter and gauge sample, and every histogram
// series' Summary, is keyed by the series name the text exposition
// prints (family name plus label block), so /statsz and /metrics are two
// renderings of one set of series and cannot disagree on a name or a
// value.
type Stats struct {
	Series     map[string]float64 `json:"series"`
	Histograms map[string]Summary `json:"histograms"`
}

// Collect renders regs into one Stats. Series names must be disjoint
// across regs (a later duplicate would overwrite an earlier one).
func Collect(regs ...*Registry) Stats {
	st := Stats{Series: make(map[string]float64), Histograms: make(map[string]Summary)}
	for _, r := range regs {
		for _, f := range r.families() {
			for _, s := range f.series {
				if f.kind == kindHistogram {
					st.Histograms[f.name+s.labels] = s.hist.Snapshot().Summarize()
				} else {
					st.Series[f.name+s.labels] = s.value()
				}
			}
		}
	}
	return st
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE comments, then one line per
// series — counters and gauges as bare samples, histograms as
// cumulative `_bucket{le=...}` lines plus `_sum` and `_count`.
// Families render in registration order (stable scrape diffs); an
// explicit trailing newline ends the payload as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.families() {
		var typ string
		switch f.kind {
		case kindCounter:
			typ = "counter"
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, &f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		// Counters are whole numbers: print every digit, never an exponent.
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, strconv.FormatFloat(s.value(), 'f', -1, 64))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.value()))
		return err
	case kindHistogram:
		snap := s.hist.Snapshot()
		// Histogram bucket lines carry the series labels plus le=...;
		// splice le into the prerendered label block.
		var cum int64
		for i, c := range snap.Counts {
			cum += c
			le := "+Inf"
			if i < len(snap.Bounds) {
				le = formatFloat(snap.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, spliceLabel(s.labels, "le", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(float64(snap.SumNanos)/1e9)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, snap.Count)
		return err
	}
	return nil
}

// spliceLabel appends k="v" to a prerendered label block.
func spliceLabel(labels, k, v string) string {
	if labels == "" {
		return "{" + k + `="` + v + `"}`
	}
	// labels is `{...}`: insert before the closing brace.
	return labels[:len(labels)-1] + "," + k + `="` + v + `"}`
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, integral values without an
// exponent where possible.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
