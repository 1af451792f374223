// Command paperbench regenerates every table and figure of the paper's
// evaluation from a synthetic scenario run: Table 1's stage statistics,
// Figures 1-10, Tables 2-3, and the §4.1/§4.2 validation numbers. Each
// experiment is a subcommand; "all" runs the whole set over one shared
// dataset.
//
// Usage:
//
//	paperbench [-total N] [-hours H] [-seed S] [-workers W]
//	           [-threshold T] [-maxrecords N]
//	           <experiment>
//
// Experiments: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7a fig7b
// table2 table3 fig8 fig9 fig10 scanners stability evasion
// groundtruth robustness all
//
// The shared dataset is built in ONE streaming pass: connections flow
// from the simulator through the classification pipeline, and every
// experiment's aggregator ingests each record as it is classified —
// nothing buffers the capture. Most aggregators are bounded by their
// key counts, but Figure 10 keeps one observation per domain-visible
// record on its axes, so peak memory grows with -total.
// Each pipeline worker owns a private shard of the aggregator set; the
// shards merge when the stream drains, exactly as per-PoP aggregates
// merge into the paper's global tables.
//
// -impair applies a named link-impairment grade (internal/faults:
// clean, lossy, hostile) to the scenario simulation, exercising the
// detector over degraded but untampered paths. The robustness
// experiment ignores -impair: it sweeps a benign scenario across every
// grade and prints the per-signature false-positive matrix.
//
// -maxrecords stops the stream after roughly N classified connections
// (the cap is checked at delivery, so in-flight batches may push the
// aggregated total slightly past it). It exists to smoke-test the
// one-pass machinery quickly on large -total values.
//
// -capture replaces the simulated shared dataset with a TDCAP capture
// file: the capture streams through the same classify-and-aggregate
// pass, and when it carries a segment index (trafficgen footer or
// tdcapindex sidecar) the scan shards into independent readers —
// -shards picks the count (0 = one per worker, 1 = single scanner). A
// missing or untrustworthy index falls back to the single-scanner path
// exactly as tamperscan does. Captures carry no scenario metadata, so
// experiments that need the generator's domain universe or their own
// simulated scenario (table2, table3, fig8, groundtruth, evasion,
// robustness, all) reject -capture, and country attribution is absent
// from the rendered tables.
//
// -metrics-addr serves the run's pipeline telemetry (stage latency
// histograms, per-signature counters, queue gauges) plus health and
// pprof endpoints while the experiments execute; -progress prints a
// one-line counter snapshot to stderr on the given interval.
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile write Go pprof
// profiles; block and mutex profiling are armed only when requested.
//
// SIGINT/SIGTERM stop a run gracefully: the dataset stream drains, the
// worker shards merge, and the experiments render over whatever was
// classified before the signal — marked as a partial dataset — before
// the process exits 1.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/faults"
	"tamperdetect/internal/logx"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/profiling"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/telemetry"
	"tamperdetect/internal/testlists"
	"tamperdetect/internal/workload"
)

// instruments carries the optional observability hooks through run —
// a pipeline telemetry block shared by every experiment's stream and
// the fault-event counters attached to impaired scenarios. The zero
// value disables the hooks.
type instruments struct {
	tel    *pipeline.Telemetry
	fstats *faults.Stats
}

var experiments = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7a", "fig7b", "table2", "table3", "fig8", "fig9", "fig10",
	"scanners", "stability", "evasion", "groundtruth", "robustness",
	"all",
}

// logger is the process-wide structured logger; main replaces it once
// -log-format is parsed. Tests exercising run() keep this default.
var logger = slog.Default()

func main() {
	total := flag.Int("total", 60000, "connections in the global scenario")
	hours := flag.Int("hours", 14*24, "scenario hours (two weeks, as in the paper)")
	scenario := flag.String("scenario", "", "build the shared dataset from this embedded preset instead of the global table")
	seed := flag.Uint64("seed", 2023, "deterministic seed")
	workers := flag.Int("workers", 0, "parallelism (0 = all cores)")
	threshold := flag.Int("threshold", 3, "per-domain match threshold for Tables 2-3 (paper: 100/day at CDN scale)")
	maxRecords := flag.Int("maxrecords", 0, "stop the shared dataset stream after roughly N connections (0 = all)")
	capturePath := flag.String("capture", "", "aggregate the shared dataset from this TDCAP capture instead of simulating")
	shards := flag.Int("shards", 0, "independent scan shards over an indexed -capture (0 = one per worker, 1 = single scanner)")
	impair := flag.String("impair", "", "link-impairment grade applied to the scenario (clean|lossy|hostile)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address for the run")
	progress := flag.Duration("progress", 0, "print a progress line to stderr on this interval (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile to this path")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile to this path")
	logFormat := flag.String("log-format", logx.FormatText, "structured log format on stderr: text or json")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paperbench [flags] <%s>\n", strings.Join(experiments, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *scenario != "" {
		// A preset carries its own total/hours; the flags override them
		// only when given explicitly on the command line.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["total"] {
			*total = 0
		}
		if !explicit["hours"] {
			*hours = 0
		}
	}
	log, err := logx.New(os.Stderr, *logFormat, logx.NewRunID(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	logger = log
	stopProf, err := profiling.Start(profiling.Config{
		CPUProfile:   *cpuprofile,
		MemProfile:   *memprofile,
		BlockProfile: *blockprofile,
		MutexProfile: *mutexprofile,
	})
	if err != nil {
		logger.Error("profiling setup failed", "err", err.Error())
		os.Exit(1)
	}

	var ins instruments
	var srv *telemetry.Server
	var rep *telemetry.Reporter
	if *metricsAddr != "" || *progress > 0 {
		ins.tel = pipeline.NewTelemetry(nil)
		ins.fstats = &faults.Stats{}
		ins.fstats.Register(ins.tel.Registry())
	}
	if *metricsAddr != "" {
		if srv, err = telemetry.NewServer(*metricsAddr, ins.tel.Registry()); err != nil {
			logger.Error("listen failed", "addr", *metricsAddr, "err", err.Error())
			os.Exit(1)
		}
		logger.Info("serving metrics", "url", srv.URL()+"/metrics")
	}
	if *progress > 0 {
		m := ins.tel.Metrics()
		rep = telemetry.StartReporterFunc(*progress, func() {
			c := m.Snapshot()
			logger.Info("progress",
				"decoded", c.Decoded, "classified", c.Classified,
				"tampering", c.Tampering, "delivered", c.Delivered)
		})
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	runErr := run(ctx, flag.Arg(0), *scenario, *total, *hours, *seed, *workers, *threshold, *maxRecords, *impair, *capturePath, *shards, ins)
	stopSig()
	if rep != nil {
		rep.Stop()
	}
	if srv != nil {
		srv.Close()
	}
	if err := stopProf(); err != nil {
		logger.Warn("profile write failed", "err", err.Error())
	}
	if runErr != nil {
		logger.Error("experiment failed", "err", runErr.Error())
		os.Exit(1)
	}
}

// The shared dataset's aggregator set, one slot per experiment input.
// newPaperAggs builds it in this order; dataset accessors index into
// the merged result. Time-series slots follow the fixed slots: fig6's
// per-country series first, then fig9's per-signature series.
const (
	aggStages       = iota // table1
	aggComposition         // fig1
	aggEvidence            // fig2 + fig3
	aggDistribution        // fig4
	aggASN                 // fig5
	aggIPVersion           // fig7a
	aggProtocol            // fig7b
	aggDomains             // table2 + table3
	aggOverlap             // fig10
	aggStability           // stability
	aggScanners            // scanners
	aggSeries              // fig6 then fig9 series
)

var (
	fig5Countries = []string{"TM", "CN", "IR", "RU", "UA", "PK", "MX", "US", "DE"}
	fig6Countries = []string{"CN", "DE", "GB", "IN", "IR", "RU", "US"}
	fig8Sigs      = []core.Signature{core.SigSYNRST, core.SigACKTimeout, core.SigACKRSTACK, core.SigSYNTimeout}
	fig9Sigs      = []core.Signature{core.SigSYNRST, core.SigPSHRST, core.SigDataRST, core.SigDataRSTACK}
)

// newPaperAggs builds one fresh shard of every aggregator the shared
// experiments read, in the slot order above.
func newPaperAggs() analysis.Multi {
	m := analysis.Multi{
		analysis.NewStageStatsAgg(),
		analysis.NewCountryBySignatureAgg(),
		analysis.NewEvidenceAgg(1000),
		analysis.NewSignatureByCountryAgg(),
		analysis.NewASNViewAgg(),
		analysis.NewIPVersionAgg(50),
		analysis.NewProtocolAgg(30),
		analysis.NewDomainAgg(),
		analysis.NewOverlapAgg(),
		analysis.NewStabilityAgg(30),
		analysis.NewScannerAgg(),
	}
	for _, c := range fig6Countries {
		c := c
		m = append(m, analysis.NewTimeSeriesAgg(4,
			func(r *analysis.Record) bool { return r.Country == c },
			analysis.PostACKPSHMatch))
	}
	for _, sig := range fig9Sigs {
		sig := sig
		m = append(m, analysis.NewTimeSeriesAgg(6, nil,
			func(r *analysis.Record) bool { return r.Res.Signature == sig }))
	}
	return m
}

// dataset is one scenario's merged aggregator set. It retains no
// connections and no records — only the constant-size aggregator
// state every experiment renders from.
type dataset struct {
	scen    *workload.Scenario
	aggs    analysis.Multi
	partial bool // stream interrupted by a signal; tables cover a prefix
}

func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// buildDataset streams the scenario simulation through the
// classification pipeline and aggregates every experiment's tables in
// that single pass: each worker adds the records it classifies to its
// private aggregator shard, and the shards merge once the stream
// drains. maxRecords > 0 stops the stream early (approximately — see
// the -maxrecords flag doc).
func buildDataset(ctx context.Context, scenario string, total, hours int, seed uint64, workers, maxRecords int, imp faults.Config, ins instruments) (*dataset, error) {
	var s *workload.Scenario
	var err error
	if scenario != "" {
		s, err = workload.PresetScenario(scenario, total, hours, seed)
	} else {
		s, err = workload.BuildScenario("paperbench", total, hours, seed)
	}
	if err != nil {
		return nil, err
	}
	s.Impairments = imp
	start := time.Now()
	w := resolveWorkers(workers)
	sharded := analysis.NewSharded(s.Geo, w, func() analysis.Aggregator { return newPaperAggs() })
	src := s.Stream(workers)
	defer src.Close()
	var sink pipeline.Sink
	if maxRecords > 0 {
		delivered := 0
		sink = func(pipeline.Item) error {
			if delivered++; delivered >= maxRecords {
				return pipeline.ErrStop
			}
			return nil
		}
	}
	counts, runErr := pipeline.Run(ctx, src,
		pipeline.Config{Workers: w, Observe: sharded.Observe, Telemetry: ins.tel}, sink)
	// A signal cancels the stream; if anything was classified, the
	// merged shards still make a usable (partial) dataset to render.
	partial := runErr != nil && errors.Is(runErr, context.Canceled) && counts.Classified > 0
	if runErr != nil && !partial {
		return nil, runErr
	}
	merged, err := sharded.Merged()
	if err != nil {
		return nil, err
	}
	mark := ""
	if partial {
		mark = " — INTERRUPTED, tables cover this partial prefix"
	}
	fmt.Printf("# dataset: %d connections, %d scenario-hours, one-pass aggregation in %v%s\n\n",
		counts.Classified, s.Hours, time.Since(start).Round(time.Millisecond), mark)
	return &dataset{scen: s, aggs: merged.(analysis.Multi), partial: partial}, nil
}

// buildCaptureDataset streams a TDCAP capture through the same
// classify-and-aggregate pass as buildDataset. A seekable capture with
// a segment index shards into independent scanners; a capture without
// a trustworthy index streams through the single scanner, and an index
// that betrays its promises mid-run is discarded and the capture
// rescanned single-threaded, so the aggregates never depend on index
// integrity. The dataset carries no scenario (scen == nil): run
// rejects the experiments that need generator metadata before calling
// this, and country attribution is absent from the tables.
func buildCaptureDataset(ctx context.Context, path string, workers, shards, maxRecords int, ins instruments) (*dataset, error) {
	if shards < 0 {
		return nil, fmt.Errorf("-shards %d: want >= 0", shards)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	w := resolveWorkers(workers)

	// scanOnce builds fresh aggregators (and a fresh -maxrecords cap) so
	// a discarded sharded attempt cannot leak into the fallback rescan.
	// The sharded path reads via ReadAt only, which never moves the file
	// offset, so the fallback's streaming read still starts at byte 0.
	scanOnce := func(seg *capture.SegmentedSource) (analysis.Multi, pipeline.Counts, error) {
		nworkers := w
		if seg != nil {
			nworkers = pipeline.ShardWorkers(w, seg.Segments())
		}
		sharded := analysis.NewSharded(nil, nworkers, func() analysis.Aggregator { return newPaperAggs() })
		var sink pipeline.Sink
		if maxRecords > 0 {
			delivered := 0
			sink = func(pipeline.Item) error {
				if delivered++; delivered >= maxRecords {
					return pipeline.ErrStop
				}
				return nil
			}
		}
		cfg := pipeline.Config{Workers: w, Observe: sharded.Observe, Telemetry: ins.tel}
		var counts pipeline.Counts
		var runErr error
		if seg != nil {
			counts, runErr = pipeline.ShardedScan(ctx, seg, cfg, sink)
		} else {
			counts, runErr = pipeline.Stream(ctx, bufio.NewReaderSize(f, 1<<20), cfg, sink)
		}
		if runErr != nil {
			return nil, counts, runErr
		}
		merged, err := sharded.Merged()
		if err != nil {
			return nil, counts, err
		}
		return merged.(analysis.Multi), counts, nil
	}

	seg := segmentCapture(f, path, shards, w)
	placement := "single scanner"
	if seg != nil {
		placement = fmt.Sprintf("%d shards", seg.Segments())
		if seg.Segments() == 1 {
			placement = "1 shard"
		}
	}
	aggs, counts, runErr := scanOnce(seg)
	if seg != nil && runErr != nil && ctx.Err() == nil {
		// Any sharded scan error means the index cannot be trusted — a
		// lying seam can surface as a generic decode error rather than
		// ErrBadIndex — so the single-scanner rescan is the arbiter: it
		// either yields the full dataset or reproduces a genuine input
		// error over the true record stream.
		logger.Warn("sharded scan failed; discarding results and rescanning single-threaded", "err", runErr.Error())
		placement = "single scanner after index fallback"
		aggs, counts, runErr = scanOnce(nil)
	}
	if runErr != nil {
		// Unlike the simulator's one-shot stream, the capture is durable:
		// an interrupted or damaged scan is simply an error and the run
		// can be repeated, so no partial-dataset rendering here.
		return nil, fmt.Errorf("scanning %s: %w", path, runErr)
	}
	fmt.Printf("# dataset: %d connections from %s (%s), one-pass aggregation in %v\n\n",
		counts.Classified, path, placement, time.Since(start).Round(time.Millisecond))
	return &dataset{scen: nil, aggs: aggs, partial: false}, nil
}

// segmentCapture decides whether the capture scan can shard, exactly
// like tamperscan: a regular file, a loadable index, shards != 1. Any
// reason it cannot is at worst a warning — the single-scanner path is
// always correct — but an index that exists and fails validation is
// reported unconditionally, while plain "no index" warns only when
// sharding was requested explicitly.
func segmentCapture(f *os.File, path string, shards, workers int) *capture.SegmentedSource {
	if shards == 1 {
		return nil
	}
	warn := func(always bool, format string, args ...any) {
		if always || shards > 1 {
			logger.Warn(fmt.Sprintf(format, args...))
		}
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		warn(false, "sharded ingest needs a regular capture file; scanning single-threaded")
		return nil
	}
	idx, err := capture.FindIndex(f, fi.Size(), path)
	if err != nil {
		if errors.Is(err, capture.ErrNoIndex) {
			warn(false, "%s has no segment index (build one with tdcapindex); scanning single-threaded", path)
		} else {
			warn(true, "%v; scanning single-threaded", err)
		}
		return nil
	}
	if shards == 0 {
		shards = workers
	}
	seg, err := capture.NewSegmentedSource(f, fi.Size(), idx, shards)
	if err != nil {
		warn(true, "%v; scanning single-threaded", err)
		return nil
	}
	return seg
}

func run(ctx context.Context, exp, scenario string, total, hours int, seed uint64, workers, threshold, maxRecords int, impair, capturePath string, shards int, ins instruments) error {
	known := false
	for _, e := range experiments {
		if e == exp {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	var imp faults.Config
	var err error
	if impair != "" {
		if imp, err = faults.Grade(impair); err != nil {
			return err
		}
	}
	imp.Stats = ins.fstats // nil-safe: a nil Stats counts nothing

	if capturePath != "" {
		// A capture has no generator metadata: no domain universe for the
		// list-coverage tables, no scenario for the case studies.
		switch exp {
		case "table2", "table3", "fig8", "groundtruth", "evasion", "robustness", "all":
			return fmt.Errorf("%s needs a simulated scenario; it cannot run over -capture", exp)
		}
	}

	var ds *dataset
	// fig8 (the Iran case study) and robustness build their own
	// scenarios; everything else shares one dataset.
	if exp != "fig8" && exp != "robustness" {
		if capturePath != "" {
			ds, err = buildCaptureDataset(ctx, capturePath, workers, shards, maxRecords, ins)
		} else {
			ds, err = buildDataset(ctx, scenario, total, hours, seed, workers, maxRecords, imp, ins)
		}
		if err != nil {
			return err
		}
	}

	runOne := func(name string) error {
		fmt.Printf("== %s ==\n", name)
		switch name {
		case "table1":
			fmt.Print(analysis.RenderStageStats(ds.aggs[aggStages].(*analysis.StageStatsAgg).Stats()))
		case "fig1":
			fmt.Print(analysis.RenderSignatureComposition(ds.aggs[aggComposition].(*analysis.CountryBySignatureAgg).Table()))
		case "fig2":
			cdfs := ds.aggs[aggEvidence].(*analysis.EvidenceAgg).CDFs()
			fmt.Print(analysis.RenderEvidenceCDF("Figure 2: max |IP-ID delta| (IPv4)", cdfs.IPID,
				[]float64{0, 1, 10, 100, 1000, 10000}))
		case "fig3":
			cdfs := ds.aggs[aggEvidence].(*analysis.EvidenceAgg).CDFs()
			fmt.Print(analysis.RenderEvidenceCDF("Figure 3: max |TTL delta|", cdfs.TTL,
				[]float64{0, 1, 5, 20, 60, 150}))
		case "fig4":
			fmt.Print(analysis.RenderCountryDistribution(ds.aggs[aggDistribution].(*analysis.SignatureByCountryAgg).Table(), 50))
		case "fig5":
			asn := ds.aggs[aggASN].(*analysis.ASNViewAgg)
			for _, c := range fig5Countries {
				view := asn.View(c)
				if len(view) > 0 {
					fmt.Print(analysis.RenderASNView(c, view))
				}
			}
		case "fig6":
			for i, c := range fig6Countries {
				series := ds.aggs[aggSeries+i].(*analysis.TimeSeriesAgg).Series()
				fmt.Print(analysis.RenderTimeSeries("Figure 6: "+c+" (Post-ACK+Post-PSH, 4h buckets)", series))
			}
		case "fig7a":
			rows, slope := ds.aggs[aggIPVersion].(*analysis.IPVersionAgg).Table()
			fmt.Print(analysis.RenderVersionComparison(rows, slope))
		case "fig7b":
			rows, slope := ds.aggs[aggProtocol].(*analysis.ProtocolAgg).Table()
			fmt.Print(analysis.RenderProtocolComparison(rows, slope))
		case "table2":
			dom := ds.aggs[aggDomains].(*analysis.DomainAgg)
			for _, region := range []string{"", "CN", "DE", "GB", "IN", "IR", "KR", "MX", "PE", "RU", "US"} {
				fmt.Print(analysis.RenderCategoryTable(dom.CategoryTable(ds.scen.Universe, region, threshold), 3))
			}
		case "table3":
			suite := testlists.BuildSuite(ds.scen.Universe, sensitiveDomain, testlists.DefaultBuildConfig())
			regions := []string{"", "CN", "IN", "IR", "KR", "MX", "PE", "RU", "US"}
			rows := ds.aggs[aggDomains].(*analysis.DomainAgg).ListCoverage(suite, regions, threshold)
			fmt.Print(analysis.RenderListCoverage(rows, regions))
		case "fig8":
			s, err := workload.Iran2022Scenario(total, seed)
			if err != nil {
				return err
			}
			s.Impairments = imp
			w := resolveWorkers(workers)
			sharded := analysis.NewSharded(s.Geo, w, func() analysis.Aggregator {
				m := analysis.Multi{}
				for _, sig := range fig8Sigs {
					sig := sig
					m = append(m, analysis.NewTimeSeriesAgg(12, nil,
						func(r *analysis.Record) bool { return r.Res.Signature == sig }))
				}
				return m
			})
			src := s.Stream(workers)
			counts, err := pipeline.Run(ctx, src,
				pipeline.Config{Workers: w, Observe: sharded.Observe, Telemetry: ins.tel}, nil)
			src.Close()
			if err != nil {
				return err
			}
			merged, err := sharded.Merged()
			if err != nil {
				return err
			}
			fmt.Printf("# iran2022: %d connections over 17 days\n", counts.Classified)
			for i, sig := range fig8Sigs {
				series := merged.(analysis.Multi)[i].(*analysis.TimeSeriesAgg).Series()
				fmt.Print(analysis.RenderTimeSeries("Figure 8: "+sig.String()+" (12h buckets)", series))
			}
		case "fig9":
			for i, sig := range fig9Sigs {
				series := ds.aggs[aggSeries+len(fig6Countries)+i].(*analysis.TimeSeriesAgg).Series()
				fmt.Print(analysis.RenderTimeSeries("Figure 9: "+sig.String()+" (6h buckets)", series))
			}
		case "fig10":
			fmt.Print(analysis.RenderOverlapMatrix(ds.aggs[aggOverlap].(*analysis.OverlapAgg).Matrix()))
		case "groundtruth":
			// Extension: score the classifier against the generator's
			// intent — the oracle unavailable in the wild.
			s, err := workload.BuildScenario("groundtruth", total/4, 48, seed)
			if err != nil {
				return err
			}
			fmt.Print(workload.RenderGroundTruth(workload.ValidateGroundTruth(s, 0, workers)))
		case "evasion":
			// §6's thought experiment: run the global scenario's CN
			// share against an evasive censor and report how much
			// tampering the passive detector still sees.
			fmt.Println(renderEvasion(total/10, seed))
		case "stability":
			fmt.Print(analysis.RenderStability(ds.aggs[aggStability].(*analysis.StabilityAgg).Report()))
		case "robustness":
			// False-positive harness: a scenario with no tampering and no
			// benign anomalies, swept across every impairment grade — each
			// grade one streaming pass into a RobustnessAgg per worker. Any
			// tampering verdict is by construction a false positive.
			n := total / 5
			if n < 1000 {
				n = 1000
			}
			s, err := workload.BenignScenario("robustness", n, 24, seed)
			if err != nil {
				return err
			}
			start := time.Now()
			specs := s.Specs()
			w := resolveWorkers(workers)
			var rows []analysis.RobustnessGrade
			for _, grade := range faults.GradeNames() {
				grade := grade
				gradeImp, err := faults.Grade(grade)
				if err != nil {
					return err
				}
				sweep := *s
				sweep.Impairments = gradeImp
				sharded := analysis.NewSharded(nil, w, func() analysis.Aggregator {
					return analysis.NewRobustnessAgg(grade, gradeImp.EffectiveLoss())
				})
				src := sweep.StreamSpecs(specs, workers)
				counts, err := pipeline.Run(ctx, src,
					pipeline.Config{Workers: w, Observe: sharded.Observe, Telemetry: ins.tel}, nil)
				src.Close()
				if err != nil {
					return err
				}
				if counts.Classified == 0 {
					return fmt.Errorf("robustness: grade %q produced no classified connections", grade)
				}
				merged, err := sharded.Merged()
				if err != nil {
					return err
				}
				rows = append(rows, merged.(*analysis.RobustnessAgg).Grade())
			}
			fmt.Printf("# robustness: %d benign connections per grade, %v\n\n",
				n, time.Since(start).Round(time.Millisecond))
			fmt.Print(analysis.RenderRobustnessMatrix(rows))
		case "scanners":
			sc := ds.aggs[aggScanners].(*analysis.ScannerAgg)
			fmt.Print(analysis.RenderScannerStats(sc.Stats()))
			// §5.1 companion stat: the share of tampering restricted to
			// the robust Post-ACK/Post-PSH subset.
			fmt.Printf("Post-ACK/Post-PSH share of matches: %.1f%%\n",
				stats.Percent(stats.Ratio(sc.PostACKPSHMatches, sc.TamperingMatches)))
		}
		fmt.Println()
		return nil
	}

	if exp == "all" {
		for _, e := range experiments {
			if e == "all" {
				continue
			}
			if err := runOne(e); err != nil {
				return err
			}
		}
	} else if err := runOne(exp); err != nil {
		return err
	}
	if ds != nil && ds.partial {
		return fmt.Errorf("interrupted: the tables above cover only the dataset classified before the signal")
	}
	return nil
}

// renderEvasion measures the §6 blind spot: connections censored by
// the drop-and-impersonate strategy classify as Not Tampering.
func renderEvasion(conns int, seed uint64) string {
	if conns < 200 {
		conns = 200
	}
	s, err := workload.BuildScenario("evasion", conns, 24, seed)
	if err != nil {
		return err.Error()
	}
	specs := s.Specs()
	cl := core.NewClassifier(core.DefaultConfig())
	detected, censored := 0, 0
	for i := range specs {
		spec := &specs[i]
		if !spec.Blocked || spec.Domain == nil || spec.Behavior != 0 {
			continue
		}
		censored++
		conn := workload.SimulateEvasive(spec, s.Universe)
		if conn == nil {
			continue
		}
		if cl.Classify(conn).Signature.IsTampering() {
			detected++
		}
	}
	return fmt.Sprintf("evasive censorship of %d blocked connections: %d detected (%.1f%%)"+
		" — the paper's §6 prediction: drop-and-impersonate defeats passive detection",
		censored, detected, stats.Percent(stats.Ratio(detected, censored)))
}

// sensitiveDomain marks the categories curated censorship lists target.
func sensitiveDomain(d *domains.Domain) bool {
	switch d.Category {
	case domains.AdultThemes, domains.News, domains.SocialNetworks, domains.Chat:
		return true
	default:
		return false
	}
}
