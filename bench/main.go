// Command bench is the repository's benchmark: four closed-loop serving
// workloads against an in-process internal/server on a loopback TCP
// listener, end-to-end metrics from an untraced window, per-layer metrics
// from a traced window plus a stage-by-stage replay, and a correctness gate
// on sampled answers. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	go run ./bench -workload serve_warm -seed 3 -seconds 16 -trace 0
//	go run ./bench [-seed N] [-smoke] [-repeats R] [-out DIR]   # all workloads, one JSON document
//	go run ./bench -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// buildDir is the one directory the benchmark writes under: WAL dirs and
// span files, beside whatever the build left there. .gitignore names it.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and end with the result line; empty runs all four in child processes")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 16, "measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from an untraced window; 1: per-layer metrics from a traced window and the replay pass")
		out      = flag.String("out", filepath.Join(buildDir, "out"), "directory for span files")
		smoke    = flag.Bool("smoke", false, "1 s windows, one set-up, correctness gate on: a CI check, not a measurement")
		repeats  = flag.Int("repeats", 1, "all-workloads mode: end-to-end runs per workload")
		compare  = flag.Bool("compare", false, "compare two all-workloads documents: -compare A.json B.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload == "":
		if *smoke {
			*seconds = 1
		}
		if !runAll(*seed, *seconds, *repeats, *smoke, *out) {
			os.Exit(1)
		}
	default:
		w := workloadByName(*workload)
		if w == nil {
			fatal(2, "unknown workload %q", *workload)
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(2, "want -seconds ≥ 1 and -trace 0 or 1")
		}
		res, err := runWorkload(runConfig{
			w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, smoke: *smoke,
			outDir: *out, tmpBase: filepath.Join(buildDir, "tmp"),
		})
		if err != nil {
			fatal(1, "%s: %v", w.Name, err)
		}
		specs := endToEnd
		if *trace == 1 {
			specs = perLayer
		}
		line, err := resultLine(res, specs)
		if err != nil {
			fatal(1, "%s: %v", w.Name, err)
		}
		fmt.Println(mustLine(res.Report))
		fmt.Println(line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the outcome with exactly the declared metrics: a
// declared metric that was not measured is an error, an undeclared one
// cannot get out.
func resultLine(o *outcome, specs []metricSpec) (string, error) {
	r := result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		v, ok := o.Metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", s.Name)
		}
		r.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	return mustLine(r), nil
}

func mustLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings
	}
	return string(b)
}

// document is what the all-workloads mode prints and -compare reads.
type document struct {
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Workloads map[string]*workloadDoc `json:"workloads"`
	// Claim is always null: this program measures, a change claims.
	Claim any `json:"claim"`
}

type workloadDoc struct {
	Why      string           `json:"why"`
	Runs     []result         `json:"runs"` // end-to-end, one per repeat
	Reports  []map[string]any `json:"reports"`
	PerLayer *result          `json:"per_layer"`
	Trace    map[string]any   `json:"trace_report"`
}

// runAll runs every workload in fresh child processes — so rss_peak_mb is
// the workload's own — and prints one JSON document.
func runAll(seed int64, seconds, repeats int, smoke bool, outDir string) (ok bool) {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	doc := document{Seed: seed, Seconds: seconds, Workloads: make(map[string]*workloadDoc)}
	ok = true
	for i := range workloads {
		w := &workloads[i]
		wd := &workloadDoc{Why: w.Why}
		doc.Workloads[w.Name] = wd
		for r := 0; r <= repeats; r++ {
			traced := r == repeats
			fmt.Fprintf(os.Stderr, "bench: %s trace=%v run %d\n", w.Name, traced, r+1)
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-out", outDir}
			if traced {
				args = append(args, "-trace", "1")
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				ok = false
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if len(lines) < 2 {
				continue
			}
			var res result
			var report map[string]any
			if json.Unmarshal(lines[len(lines)-1], &res) != nil || json.Unmarshal(lines[len(lines)-2], &report) != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: unreadable output\n", w.Name)
				ok = false
				continue
			}
			ok = ok && res.Correct && res.Failed == 0
			if traced {
				wd.PerLayer, wd.Trace = &res, report
			} else {
				wd.Runs, wd.Reports = append(wd.Runs, res), append(wd.Reports, report)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(1, "%v", err)
	}
	return ok
}
