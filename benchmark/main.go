// Command benchmark is the repository's benchmark. It drives the real
// CLIs (trafficgen, tamperscan, paperbench -capture, popmerge) as
// black-box subprocesses on four workloads and prints the end-to-end
// metrics of each; with -trace 1 it runs the per-layer ledger instead.
// README.md describes the workloads, the metrics and how to run each mode;
// BENCHMARK.json is the contract the driver reads.
//
// Usage (from the repository root):
//
//	go run ./benchmark -seed 1                    all workloads, end-to-end metrics
//	go run ./benchmark -seed 1 -workload scan-report
//	go run ./benchmark -seed 1 -ledger            per-layer metrics and trace.json
//	go run ./benchmark -seed 1 -sets 2            run twice, compare within bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build" // everything the benchmark writes stays under it
	// setupReps is how often a run repeats a workload's set-up; setup_s is
	// the median, so one disturbed set-up does not move it.
	setupReps = 3
	// rssSelfTestKB bounds what a ~9 MB child may report as its peak RSS;
	// see checkRSSFloor.
	rssSelfTestKB = 15 << 10
)

func main() {
	var (
		role     = flag.String("role", "", "internal: run as a child role (fleet-driver, ledger)")
		capPath  = flag.String("capture", "", "internal: capture file of the fleet-driver role")
		ledgerIn = flag.String("ledger-in", "", "internal: input file of the ledger role")
		wlName   = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 20, "measured seconds per workload")
		traceOn  = flag.Int("trace", 0, "1 = run the per-layer ledger instead of the end-to-end passes")
		ledgerOn = flag.Bool("ledger", false, "same as -trace 1")
		sets     = flag.Int("sets", 1, "run the whole benchmark this many times and compare the sets' medians")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	switch *role {
	case "fleet-driver":
		err = fleetDriverRole(ctx, *capPath)
	case "ledger":
		err = ledgerRole(*ledgerIn)
	case "":
		err = orchestrate(ctx, options{workload: *wlName, seed: *seed, seconds: *seconds,
			ledger: *ledgerOn || *traceOn == 1, sets: *sets})
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	ledger   bool
	sets     int
}

// runResult is one workload's outcome: the last line of a single-workload
// run's standard output is this object.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func orchestrate(ctx context.Context, o options) error {
	names := workloadNames
	if o.workload != "" {
		if newWorkload(o.workload) == nil {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
		}
		names = []string{o.workload}
	}
	if o.seconds < 1 || o.sets < 1 {
		return errors.New("-seconds and -sets must be at least 1")
	}
	if _, err := os.Stat(filepath.Join("cmd", "trafficgen")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	b := &bench{seed: o.seed, workers: runtime.NumCPU()}
	var err error
	if b.bin, err = filepath.Abs(filepath.Join(buildDir, "bin")); err != nil {
		return err
	}
	buildS, err := buildCLIs(ctx, b.bin)
	if err != nil {
		return err
	}
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if b.dir, err = os.MkdirTemp(tmp, "run-"); err != nil {
		return err
	}
	// A signal cancels ctx, which kills every child; the deferred removal
	// then runs on the ordinary error path.
	defer os.RemoveAll(b.dir)
	if b.dir, err = filepath.Abs(b.dir); err != nil {
		return err
	}
	printEnvironment(b, o, buildS)
	if err := checkRSSFloor(ctx, b); err != nil {
		return err
	}

	if o.ledger {
		res, err := runLedger(ctx, b, buildS)
		if err != nil {
			return err
		}
		return finish(res, o.workload != "")
	}

	setsOut := make([]map[string]runResult, o.sets)
	ok := true
	for s := range setsOut {
		setsOut[s] = map[string]runResult{}
		for _, name := range names {
			res, err := measure(ctx, b, name, time.Duration(o.seconds)*time.Second)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			setsOut[s][name] = res
			ok = ok && res.Correct
		}
	}
	if o.sets > 1 && !compareSets(names, setsOut) {
		ok = false
	}
	if o.workload != "" {
		return finish(setsOut[0][o.workload], true)
	}
	if !ok {
		return errors.New("a check failed (see above)")
	}
	return nil
}

// finish prints a single-workload result as the final JSON line, and
// turns a failed check into a non-zero exit.
func finish(res runResult, jsonLine bool) error {
	if jsonLine {
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if !res.Correct {
		return errors.New("a check failed (see above)")
	}
	return nil
}

// buildCLIs compiles the four CLIs into bin and returns how long it took.
func buildCLIs(ctx context.Context, bin string) (float64, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/trafficgen", "./cmd/tamperscan", "./cmd/paperbench", "./cmd/popmerge")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// printEnvironment prints the block every run starts with.
func printEnvironment(b *bench, o options, buildS float64) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("environment: num_cpu=%d GOMAXPROCS=%d go=%s cpu=%q seed=%d commit=%s seconds=%d build_s=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, o.seed, commit, o.seconds, buildS)
}

// checkRSSFloor is the peak-RSS self-test. A child's ru_maxrss can never
// read below this process's own high-water mark (see runProc), so a
// trivial child — tamperscan over a 200-connection capture, about 9 MB —
// must report less than rssSelfTestKB; if it does not, this process has
// grown too large to measure the real workloads' memory.
func checkRSSFloor(ctx context.Context, b *bench) error {
	tiny := filepath.Join(b.dir, "tiny.tdcap")
	defer os.Remove(tiny)
	if _, err := b.trafficgen(ctx, nil, 200, 1, tiny); err != nil {
		return err
	}
	pr, err := runProc(ctx, nil, b.cli("tamperscan"), "-workers", "1", tiny)
	if err != nil {
		return err
	}
	if pr.RSSKB <= 0 || pr.RSSKB >= rssSelfTestKB {
		return fmt.Errorf("peak-RSS self-test: a trivial child reports %d kB, want under %d kB", pr.RSSKB, rssSelfTestKB)
	}
	return nil
}

// measure sets the workload up setupReps times, then runs whole passes
// for the given duration and reduces them to the end-to-end metrics.
func measure(ctx context.Context, b *bench, name string, d time.Duration) (runResult, error) {
	w := newWorkload(name)
	defer w.close()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, b); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var passes []passResult
	for start := time.Now(); len(passes) == 0 || time.Since(start) < d; {
		p, err := w.pass(ctx, b, b.workers, false)
		if err != nil {
			return runResult{}, err
		}
		if p.Problem != "" {
			fmt.Printf("%s: pass %d failed its output check: %s\n", name, len(passes)+1, p.Problem)
		}
		passes = append(passes, p)
	}
	own, err := vmHWM(os.Getpid())
	if err != nil {
		return runResult{}, err
	}

	res := runResult{Correct: true, Metrics: map[string]metricValue{}}
	var opsPerS, cpuPerOp, rssMB, bytesPerOp []float64
	minRSS := int64(1) << 62
	for _, p := range passes {
		res.Attempted += p.Ops
		res.Failed += p.Failed
		opsPerS = append(opsPerS, float64(p.Ops)/p.Wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(p.CPU.Microseconds())/float64(p.Ops))
		rssMB = append(rssMB, float64(p.RSSKB)/1024)
		bytesPerOp = append(bytesPerOp, float64(p.OutBytes)/float64(p.Ops))
		minRSS = min(minRSS, p.RSSKB)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if own >= minRSS {
		fmt.Printf("%s: this process peaked at %d kB, not below the smallest child's %d kB: peak_rss_mb is unreliable\n", name, own, minRSS)
		res.Correct = false
	}
	values := map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        median(opsPerS),
		"cpu_us_per_op":    median(cpuPerOp),
		"peak_rss_mb":      median(rssMB),
		"out_bytes_per_op": median(bytesPerOp),
	}
	fmt.Printf("\n%s: %d passes, %d ops attempted, %d failed (failed_ops_share %g), %d set-ups\n",
		name, len(passes), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), len(setups))
	for _, def := range endToEndMetrics {
		res.Metrics[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
		fmt.Printf("  %-18s %14.4f %s\n", def.Name, values[def.Name], def.Unit)
	}
	if f, ok := w.(*fleetMerge); ok {
		// Latencies only this workload has; the driver contract wants every
		// end-to-end metric from every workload, so these are printed here
		// and recorded as per-layer metrics by the ledger.
		push, rep := f.stats.Push, f.stats.Report
		fmt.Printf("  %-18s %14.4f ms  (%d samples)\n", "push_ms_p50", push.P50, push.N)
		fmt.Printf("  %-18s %14.4f ms  (p%.4g of %d samples)\n", "push_ms_p99", push.Tail, 100*push.TailPct, push.N)
		fmt.Printf("  %-18s %14.4f ms  (%d samples)\n", "report_ms_p50", rep.P50, rep.N)
	}
	return res, nil
}

// benchmarkFile mirrors the parts of BENCHMARK.json the code reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// compareSets prints, per workload and end-to-end metric, each set's value,
// the relative difference of the last set from the first and the metric's
// bound from BENCHMARK.json, and reports whether every pair is within it.
func compareSets(names []string, sets []map[string]runResult) bool {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Println("sets:", err)
		return false
	}
	ok := true
	fmt.Printf("\n%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "last", "worse by", "bound")
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			first, last := sets[0][name].Metrics[m.Name].Value, sets[len(sets)-1][name].Metrics[m.Name].Value
			worse := relWorse(first, last, m.Better == "higher")
			verdict := ""
			if worse > m.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, m.Name, first, last, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok
}

// runLedger times the CLI passes the ledger reconciles against — each CLI
// workload at -workers 1 under GOMAXPROCS=1 and at -workers nproc, the
// fleet with one pusher and with nproc — then hands them to the ledger
// role, which times the layers in process.
func runLedger(ctx context.Context, b *bench, buildS float64) (runResult, error) {
	origin := time.Now()
	in := ledgerInput{OriginNS: origin.UnixNano(), Seed: b.seed, Workers: b.workers, BuildS: buildS,
		TraceOut: filepath.Join(buildDir, "trace.json"), ResultOut: filepath.Join(b.dir, "ledger-out.json")}
	res := runResult{Correct: true, Metrics: map[string]metricValue{}}
	records := 0 // in in.Capture
	note := func(workload string, p passResult) {
		if p.Problem != "" {
			fmt.Printf("ledger: %s failed its output check: %s\n", workload, p.Problem)
			res.Correct = false
		}
		res.Failed += p.Failed
	}
	for _, name := range []string{wlGenCapture, wlScanVerdicts, wlScanReport} {
		w := newWorkload(name)
		if err := w.setup(ctx, b); err != nil {
			return res, fmt.Errorf("%s set-up: %w", name, err)
		}
		reps := 5
		if name == wlGenCapture {
			reps = 3 // one pass simulates genTotal connections and takes seconds
		}
		for i := 0; i < reps; i++ {
			for _, workers := range []int{1, b.workers} {
				p, err := w.pass(ctx, b, workers, workers == 1)
				if err != nil {
					return res, fmt.Errorf("%s: %w", name, err)
				}
				note(name, p)
				in.Runs = append(in.Runs, cliRun{Workload: name, Workers: workers,
					StartNS: p.Start.UnixNano(), EndNS: p.Start.Add(p.Wall).UnixNano(), Ops: p.Ops})
			}
		}
		if s, ok := w.(*scan); ok {
			// The fleet and the in-process stages read the same bytes.
			in.Capture, records = s.capture, s.records
		}
	}

	fm := &fleetMerge{}
	defer fm.close()
	if err := fm.start(ctx, in.Capture, records); err != nil {
		return res, err
	}
	for _, clients := range []int{b.workers, 1} {
		p, err := fm.pass(ctx, b, clients, clients == 1)
		if err != nil {
			return res, err
		}
		note(wlFleetMerge, p)
		if clients == 1 {
			in.Fleet1 = fm.last
		} else {
			in.FleetN, in.FleetLat = fm.last, fm.stats
		}
	}
	if err := fm.close(); err != nil {
		return res, err
	}

	inPath := filepath.Join(b.dir, "ledger-in.json")
	data, err := json.Marshal(in)
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(inPath, data, 0o644); err != nil {
		return res, err
	}
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.CommandContext(ctx, self, "-role", "ledger", "-ledger-in", inPath)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("ledger role: %w", err)
	}
	var out ledgerResult
	if data, err = os.ReadFile(in.ResultOut); err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return res, err
	}
	for _, p := range out.Problems {
		fmt.Println("ledger:", p)
		res.Correct = false
	}
	res.Attempted = out.Ops

	fmt.Printf("\nper-layer metrics (spans in %s):\n", in.TraceOut)
	for _, def := range perLayerMetrics {
		v, ok := out.Metrics[def.Name]
		if !ok {
			return res, fmt.Errorf("ledger printed no %s", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Printf("  %-42s %14.4f %s\n", def.Name, v, def.Unit)
	}
	var extra []string
	for name := range out.Metrics {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("ledger computed metrics no list names: %s", strings.Join(extra, ", "))
	}
	fmt.Printf("ledger run took %.1f s\n", time.Since(origin).Seconds())
	return res, nil
}
