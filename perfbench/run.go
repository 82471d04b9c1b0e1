package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metaleak/internal/experiments"
)

// runResult is what the run child reports to the orchestrator.
type runResult struct {
	Shape     string            `json:"shape"`
	Passes    int               `json:"passes"`
	Units     int               `json:"units"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures"`
	Checked   string            `json:"checked"`
	Digests   []string          `json:"digests"`
	PassWalls []float64         `json:"pass_wall_s"`
	PassPeaks []float64         `json:"pass_peak_rss_mb"`
	WallS     float64           `json:"wall_s"`
	CPUS      float64           `json:"cpu_s"`
	UnitsPerS float64           `json:"units_per_s"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

// cumFuncs are the functions whose cumulative CPU time the traced run
// reports, as cum_s.<pkg>.<Type>.<Method>.
var cumFuncs = []string{
	"metaleak/internal/core.(*Attacker).BuildEvictionSet",
	"metaleak/internal/itree.(*VTree).WritebackNode",
	"metaleak/internal/core.(*CounterMonitor).Bump",
	"metaleak/internal/dram.(*DRAM).Read",
	"metaleak/internal/dram.(*DRAM).Write",
	"metaleak/internal/secmem.(*Controller).Read",
	"metaleak/internal/secmem.(*Controller).Write",
	"metaleak/internal/crypto.(*Engine).HashBytes",
	"metaleak/internal/crypto.(*Engine).MACOf",
	"metaleak/internal/machine.NewSystem",
	"metaleak/internal/cache.New",
	"metaleak/internal/hunt.Run",
	"metaleak/internal/contract.Projector.Observe",
	"metaleak/internal/contract.DiffObs",
	"metaleak/internal/jpeg.(*Encoder).Encode",
}

// cumName turns "metaleak/internal/core.(*Attacker).BuildEvictionSet"
// into "cum_s.core.Attacker.BuildEvictionSet".
func cumName(fn string) string {
	s := fn[len(internalPrefix):]
	for _, r := range []string{"(*", ")", "("} {
		s = strings.ReplaceAll(s, r, "")
	}
	return "cum_s." + s
}

// runtimeMetrics are the runtime/metrics whose deltas over the traced
// passes are reported, keyed by metric name.
var runtimeMetrics = []struct{ key, name, unit string }{
	{"/gc/heap/allocs:bytes", "runtime.alloc_mb", "MB"},
	{"/gc/heap/allocs:objects", "runtime.allocs", "count"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles", "count"},
	{"/cpu/classes/gc/total:cpu-seconds", "runtime.gc_cpu_s", "s"},
}

func readRuntimeMetrics() []float64 {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		samples[i].Name = m.key
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// digest is a unit output's identity in the references: the first 64
// bits of its SHA-256, in hex.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// passDigest is the identity of a whole pass: the digest of its unit
// digests in order.
func passDigest(digests []string) string {
	var buf bytes.Buffer
	for _, d := range digests {
		buf.WriteString(d)
		buf.WriteByte('\n')
	}
	return digest(buf.String())
}

// childRun generates the workload's inputs, then runs passes of its
// fixed work until the run's seconds have elapsed. With tracing on,
// passes alternate untraced and traced, so the traced run measures its
// own overhead; the per-layer figures come from the traced passes only.
func childRun(c config, w workload) error {
	j := w.prepare(c.seed)
	ctx := context.Background()
	traced := c.trace == 1

	var (
		walls, cpus, rates   []float64
		tracedWalls          []float64
		first                []string
		failures             []string
		bad                  [][]bool
		peaks                []float64
		samples              []stack
		spans                = map[string]float64{}
		rtDelta              = make([]float64, len(runtimeMetrics))
		passes, tracedPasses int
	)
	//metalint:allow wallclock the benchmark measures host time
	start := time.Now()
	//metalint:allow wallclock the benchmark measures host time
	for passes == 0 || time.Since(start) < time.Duration(c.seconds)*time.Second ||
		(traced && tracedPasses == 0) {
		tracing := traced && passes%2 == 1
		var (
			prof bytes.Buffer
			rt0  []float64
			span func(string, time.Duration)
		)
		if tracing {
			span = func(name string, d time.Duration) { spans[name] += d.Seconds() }
			rt0 = readRuntimeMetrics()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		//metalint:allow wallclock the benchmark measures host time
		cpu0, t0 := cpuTime(), time.Now()
		outs, errs := j.pass(ctx, span)
		//metalint:allow wallclock the benchmark measures host time
		wall, cpu := time.Since(t0).Seconds(), cpuTime()-cpu0
		peak, err := peakRSS()
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		if tracing {
			pprof.StopCPUProfile()
			for i, v := range readRuntimeMetrics() {
				rtDelta[i] += v - rt0[i]
			}
			st, err := parseCPUProfile(prof.Bytes())
			if err != nil {
				return err
			}
			samples = append(samples, st...)
			tracedWalls = append(tracedWalls, wall)
			tracedPasses++
		} else {
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
			rates = append(rates, float64(len(j.units))/wall)
		}

		digests := make([]string, len(outs))
		for i, o := range outs {
			digests[i] = digest(o)
		}
		passBad := make([]bool, len(j.units))
		for i, u := range j.units {
			switch {
			case errs[i] != nil:
				passBad[i] = true
				failures = append(failures, fmt.Sprintf("pass %d %s: %v", passes, u, errs[i]))
			case first != nil && digests[i] != first[i]:
				passBad[i] = true
				failures = append(failures, fmt.Sprintf("pass %d %s: digest %s differs from pass 0's %s", passes, u, digests[i], first[i]))
			}
		}
		bad = append(bad, passBad)
		if first == nil {
			first = digests
		}
		passes++
	}

	refs, err := loadRefs(filepath.Join(c.dir, "refs", w.name+".txt"))
	if err != nil {
		return err
	}
	// Pass 0 stands for every pass: a later pass that differs from it
	// has already been counted.
	checked, msgs, refBad := refs.check(c.seed, j.units, first)
	failures = append(failures, msgs...)
	attempted, failed := 0, 0
	for _, passBad := range bad {
		for i := range passBad {
			attempted++
			if passBad[i] || refBad[i] {
				failed++
			}
		}
	}
	if c.update {
		if err := refs.update(filepath.Join(c.dir, "refs", w.name+".txt"), c.seed, j.units, first); err != nil {
			return err
		}
	}

	res := runResult{
		Shape:     j.shape,
		Passes:    passes,
		Units:     len(j.units),
		Attempted: attempted,
		Failed:    failed,
		Failures:  failures,
		Checked:   checked,
		PassWalls: append(walls, tracedWalls...),
		PassPeaks: peaks,
		WallS:     median(walls),
		CPUS:      median(cpus),
		UnitsPerS: median(rates),
	}
	for i, u := range j.units {
		res.Digests = append(res.Digests, u+" "+first[i])
	}
	res.Digests = append(res.Digests, "* "+passDigest(first))
	if traced {
		res.Layers = layerMetrics(samples, spans, rtDelta, tracedPasses,
			median(tracedWalls)/median(walls)-1, float64(failed)/float64(attempted))
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// layerMetrics turns the traced passes' profile samples, spans and
// runtime/metrics deltas into per-pass per-layer metrics.
func layerMetrics(samples []stack, spans map[string]float64, rt []float64, n int, overhead, failFrac float64) map[string]metric {
	per := func(ns int64) float64 { return float64(ns) / 1e9 / float64(n) }
	m := map[string]metric{}
	self, total := selfByLayer(samples)
	for _, l := range append(append([]string{}, layers...), "runtime", "other") {
		m[l+".self_s"] = metric{per(self[l]), "s"}
	}
	m["profile.total_s"] = metric{per(total), "s"}
	cum := cumulative(samples, cumFuncs)
	for _, fn := range cumFuncs {
		m[cumName(fn)] = metric{per(cum[fn]), "s"}
	}
	for _, id := range experiments.IDs() {
		m["exp."+id+".s"] = metric{spans["exp."+id] / float64(n), "s"}
	}
	for i, r := range runtimeMetrics {
		v := rt[i] / float64(n)
		if r.unit == "MB" {
			v /= 1 << 20
		}
		m[r.name] = metric{v, r.unit}
	}
	m["trace.overhead_frac"] = metric{overhead, "frac"}
	m["fail_frac"] = metric{failFrac, "frac"}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current resident size, so that each pass's peak is its own. The
// process-wide peak is one draw of the GC's timing; the median of the
// per-pass peaks is steady.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
