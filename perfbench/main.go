// Command perfbench is the repository's end-to-end benchmark: it times
// the paper's evaluation, a design-space sweep and a differential
// leakage hunt through the same public entry points users call, checks
// every output against committed reference digests, and prints the
// metrics named in BENCHMARK.json. See README.md.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload paper|sweep|hunt --seed N --seconds S --trace 0|1
//	.bench_build/perfbench compare A.out B.out   # two saved outputs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fresh processes time set-up per run; the
// median of them is setup_s, because one process start is too noisy.
const setupSamples = 51

// runDeadline bounds the whole run: the benchmark must exit within
// 180 seconds.
const runDeadline = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	dir      string // the benchmark's directory (references)
	root     string // the checkout's root (source fingerprint)
	child    string // "", "setup" or "run"
	t0       int64  // parent's clock at child start, Unix ns
	update   bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "paper, sweep or hunt")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.seconds, "seconds", 20, "measure passes until this many seconds have elapsed")
	fs.IntVar(&c.trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&c.dir, "dir", "perfbench", "the benchmark's directory")
	fs.StringVar(&c.root, "root", ".", "the repository root")
	fs.StringVar(&c.child, "child", "", "internal: setup or run")
	fs.Int64Var(&c.t0, "t0", 0, "internal: parent clock at process start, Unix ns")
	fs.BoolVar(&c.update, "update", false, "write this seed's digests into the references")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := findWorkload(c.workload)
	if !ok || c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload paper|sweep|hunt, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	var err error
	switch c.child {
	case "setup":
		// Everything a run does before its first unit, then stop.
		w.prepare(c.seed)
		//metalint:allow wallclock the benchmark measures host time
		fmt.Println(time.Since(time.Unix(0, c.t0)).Seconds())
		return
	case "run":
		err = childRun(c, w)
	case "":
		err = orchestrate(c, w)
	default:
		err = fmt.Errorf("unknown -child %q", c.child)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// startChild re-executes this binary in a child mode and returns its
// standard output once it has exited.
func startChild(ctx context.Context, c config, mode string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", c.workload, "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.Itoa(c.seconds), "-trace", strconv.Itoa(c.trace),
		"-dir", c.dir, "-root", c.root, "-child", mode,
	}
	if c.update {
		args = append(args, "-update")
	}
	cmd := exec.CommandContext(ctx, self, append(args, "-t0", "")...)
	cmd.Stderr = os.Stderr
	// The clock is read last, so the child's set-up time covers exec,
	// runtime and package init, and input generation.
	//metalint:allow wallclock the benchmark measures host time
	cmd.Args[len(cmd.Args)-1] = strconv.FormatInt(time.Now().UnixNano(), 10)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	return out, nil
}

func orchestrate(c config, w workload) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var setups []float64
	if c.trace == 0 {
		for i := 0; i < setupSamples; i++ {
			out, err := startChild(ctx, c, "setup")
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
			if err != nil {
				return fmt.Errorf("setup child printed %q", out)
			}
			setups = append(setups, v)
		}
	}

	steal0, total0 := cpuStat()
	out, err := startChild(ctx, c, "run")
	if err != nil {
		return err
	}
	steal1, total1 := cpuStat()
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return fmt.Errorf("run child output: %w", err)
	}

	metrics := res.Layers
	if c.trace == 0 {
		metrics = endToEnd(setups, res)
	}

	rec := record{
		Workload:  w.name,
		Shape:     res.Shape,
		Seed:      c.seed,
		Trace:     c.trace,
		Host:      hostFingerprint(),
		StealFrac: ratio(steal1-steal0, total1-total0),
		Code:      codeIdentity(c.root),
		Passes:    res.Passes,
		PassWalls: res.PassWalls,
		PassPeaks: res.PassPeaks,
		Units:     res.Units,
		Metrics:   metrics,
		FailFrac:  float64(res.Failed) / float64(res.Attempted),
		Failures:  res.Failures,
		Checked:   res.Checked,
	}
	for _, d := range res.Digests {
		fmt.Println("digest", d)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println("record", string(recJSON))

	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// endToEnd assembles the untraced run's metrics from the set-up
// samples and the run child's passes.
func endToEnd(setups []float64, res runResult) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {res.WallS, "s"},
		"cpu_s":       {res.CPUS, "s"},
		"units_per_s": {res.UnitsPerS, "1/s"},
		"peak_rss_mb": {median(res.PassPeaks), "MB"},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything a result is compared by: the host it ran on,
// the code it ran, and the workload's seed and shape.
type record struct {
	Workload string `json:"workload"`
	Shape    string `json:"shape"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	// StealFrac is the share of all CPU time on this machine that the
	// hypervisor gave to other guests during the run (/proc/stat steal).
	// It is context for a noisy result, not a metric.
	StealFrac float64 `json:"steal_frac"`
	Code      code    `json:"code"`
	Passes    int     `json:"passes"`
	// PassWalls are the untraced passes' wall seconds, then the traced.
	PassWalls []float64         `json:"pass_wall_s"`
	PassPeaks []float64         `json:"pass_peak_rss_mb"`
	Units     int               `json:"units"`
	Metrics   map[string]metric `json:"metrics"`
	FailFrac  float64           `json:"fail_frac"`
	Failures  []string          `json:"failures,omitempty"`
	// Checked says what the outputs were checked against: per-unit
	// reference digests, a whole-pass reference digest, or only each
	// other (a seed with no committed reference).
	Checked string `json:"checked"`
}
