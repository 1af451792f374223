// Command tamperscan classifies a capture file against the 19
// tampering signatures and prints a report: the signature histogram,
// stage breakdown, per-signature evidence summaries, and (with -v)
// per-connection verdicts.
//
// Input may be a TDCAP connection capture (written by trafficgen) or a
// classic libpcap file (LINKTYPE_RAW or Ethernet); the format is
// auto-detected. For pcap input, packets are run through the paper's
// sampling pipeline first (inbound-only flow records, 10-packet cap,
// 1-second timestamps).
//
// Either way the capture streams through the classification pipeline
// (internal/pipeline): connections are decoded incrementally, fanned
// across a classifier worker pool, and tallied into one report shard
// per worker; the shards merge when the stream drains. Arbitrarily
// large captures scan in bounded memory.
//
// Usage:
//
//	tamperscan [-v] [-tampered-only] [-workers N] [-shards N]
//	           [-metrics-addr host:port] [-progress interval]
//	           capture.{tdcap,pcap}
//
// TDCAP input streams through the parallel decode pipeline: a scanner
// goroutine finds record boundaries and the worker pool decodes and
// classifies with the signature automaton compiled from Table 1
// (core.RuleTable).
//
// When the capture is a seekable file with a segment index — a footer
// written by trafficgen, or a .tdx sidecar from tdcapindex — the scan
// shards into independent readers, one per index segment, removing the
// single-scanner bottleneck. -shards picks the shard count (0 = auto:
// one per worker when an index exists; 1 = force the single-scanner
// path). A missing, stale, or damaged index is never trusted: the scan
// warns and falls back to the single-scanner path, and if the index
// betrays its promises mid-run (a seam that is not a record boundary)
// the sharded results are discarded and the whole capture is rescanned
// single-threaded, so output never depends on index integrity.
//
// With -metrics-addr, an introspection HTTP server runs for the
// duration of the scan: /metrics (Prometheus text), /metrics.json,
// /healthz, /debug/vars, /debug/pprof/*, and /debug/tracez (recent
// spans, per-stage latency percentiles, slowest spans — see
// internal/telemetry and internal/trace). With -progress, a pipeline
// snapshot is logged on the given interval.
//
// Diagnostics are structured: every stderr line goes through log/slog
// (-log-format text|json) stamped with a per-run correlation ID, which
// doubles as the scan's root trace ID. -trace-profile FILE records the
// scan's spans and exports them as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto); -trace-sample N controls per-record
// span sampling (deterministic head sampling by record index, so the
// sampled set is reproducible across runs and -workers counts). A
// fixed-size flight recorder always runs, holding the last spans and
// warn-level events; on a signal interrupt or a sharded-scan rescan it
// dumps to stderr as JSON lines (and to -flight-out FILE when set) for
// post-mortem triage.
//
// With -push URL, the scan doubles as a fleet PoP: classified
// connections also feed the full fleet aggregator set, and per-epoch
// delta snapshots are pushed to a popmerge service (internal/fleet) —
// periodically on -push-interval, and always once at scan end. The
// push client retries with capped jittered backoff; -push-spill names
// a directory where undeliverable frames survive a merger outage and
// are resumed by the next -push run. -pop names this vantage (default
// the hostname).
//
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile write Go pprof
// profiles of the whole run (flag parsing to exit), the same flags
// trafficgen and paperbench take; block and mutex profiling are armed
// only when requested.
//
// SIGINT/SIGTERM cancel the scan gracefully: the pipeline drains, the
// partial report prints, pending pushes flush, and the process exits 3
// (the partial-results code).
//
// Exit status: 0 on a clean scan, 1 on failure, 2 on usage errors, 3
// when the scan ended early — input truncated or corrupt partway
// through, or interrupted by a signal — with the report for the
// scanned prefix still printed, and 4 when the report printed but a
// -push frame was lost: the merger rejected it, or it could not be
// delivered and there was no -push-spill directory to keep it. 4
// takes precedence over 3.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/logx"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/pcap"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/profiling"
	"tamperdetect/internal/stats"
	"tamperdetect/internal/telemetry"
	"tamperdetect/internal/trace"
)

// options carries the command's flags into run.
type options struct {
	verbose      bool
	tamperedOnly bool
	workers      int
	shards       int           // 0 = auto (index-driven), 1 = force single-scanner
	metricsAddr  string        // "" = no metrics server
	progress     time.Duration // 0 = no progress lines
	pushURL      string        // "" = no fleet push
	pop          string        // PoP name for pushed snapshots
	pushInterval time.Duration // 0 = single epoch at scan end
	pushSpill    string        // "" = no spill directory
	logFormat    string        // "text" (default) or "json"
	traceProfile string        // "" = no Chrome trace export
	traceSample  int           // per-record span sampling interval; <0 = default
	flightOut    string        // "" = flight dumps go to stderr only
}

func main() {
	var opts options
	var prof profiling.Config
	flag.StringVar(&prof.CPUProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&prof.MemProfile, "memprofile", "", "write an allocation profile to this path")
	flag.StringVar(&prof.BlockProfile, "blockprofile", "", "write a goroutine blocking profile to this path")
	flag.StringVar(&prof.MutexProfile, "mutexprofile", "", "write a mutex contention profile to this path")
	flag.BoolVar(&opts.verbose, "v", false, "print each connection's verdict")
	flag.BoolVar(&opts.tamperedOnly, "tampered-only", false, "with -v, print only tampered connections")
	flag.IntVar(&opts.workers, "workers", 0, "classifier parallelism (0 = all cores)")
	flag.IntVar(&opts.shards, "shards", 0, "independent scan shards over an indexed capture (0 = auto, 1 = single scanner)")
	flag.StringVar(&opts.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /debug/pprof on this host:port for the scan's duration")
	flag.DurationVar(&opts.progress, "progress", 0, "print a one-line pipeline snapshot to stderr on this interval (e.g. 2s; 0 = off)")
	flag.StringVar(&opts.pushURL, "push", "", "push per-epoch fleet snapshots to this popmerge base URL")
	flag.StringVar(&opts.pop, "pop", "", "PoP name stamped on pushed snapshots (default: hostname)")
	flag.DurationVar(&opts.pushInterval, "push-interval", 0, "push a delta snapshot on this interval (0 = one snapshot at scan end)")
	flag.StringVar(&opts.pushSpill, "push-spill", "", "spill undeliverable push frames to this directory and resume them next run")
	flag.StringVar(&opts.logFormat, "log-format", logx.FormatText, "structured log format on stderr: text or json")
	flag.StringVar(&opts.traceProfile, "trace-profile", "", "export the scan's spans as Chrome trace-event JSON to this file")
	flag.IntVar(&opts.traceSample, "trace-sample", trace.DefaultSampleEvery, "emit per-record spans for every Nth record (0 = batch spans only)")
	flag.StringVar(&opts.flightOut, "flight-out", "", "also write flight-recorder dumps to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: tamperscan [-v] [-tampered-only] [-workers N] [-shards N] [-metrics-addr host:port] [-progress interval]
                  [-log-format text|json] [-trace-profile file] [-trace-sample N] [-flight-out file]
                  [-cpuprofile file] [-memprofile file] [-blockprofile file] [-mutexprofile file]
                  [-push URL [-pop name] [-push-interval D] [-push-spill dir]] capture.{tdcap,pcap}

exit status:
  0  clean scan
  1  failure (unreadable input, no records scanned)
  2  usage error
  3  scan ended early — input truncated or corrupt partway through, or
     interrupted by SIGINT/SIGTERM; the report for the scanned prefix
     was still printed
  4  the report printed, but a -push frame was not delivered: the
     merger rejected it (kept as *.rejected under -push-spill), or it
     was undeliverable and not spilled (takes precedence over 3)
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tamperscan:", err)
		os.Exit(1)
	}
	err = run(flag.Arg(0), opts)
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "tamperscan: profile write failed:", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tamperscan:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps run's error to the exit status. A lost push frame
// exits 4 and a truncated or corrupt capture that still yielded
// results exits 3, both distinct from total failure (1) and usage (2),
// so callers can keep the report while noticing the damage.
func exitCode(err error) int {
	switch {
	case errors.As(err, new(*pushLostError)):
		return 4
	case errors.As(err, new(*partialError)):
		return 3
	}
	return 1
}

// pushLostError marks a scan whose report printed but at least one of
// whose -push frames reached no merger and is not spilled for a later
// run.
type pushLostError struct{ err error }

func (e *pushLostError) Error() string { return "fleet push lost frames: " + e.err.Error() }

func (e *pushLostError) Unwrap() error { return e.err }

// partialError marks a scan that ended mid-stream — damaged input or a
// signal — after producing a partial report.
type partialError struct{ err error }

func (e *partialError) Error() string {
	if errors.Is(e.err, context.Canceled) {
		return "interrupted (partial results above)"
	}
	return fmt.Sprintf("input damaged after %s (partial results above)", e.err)
}

func (e *partialError) Unwrap() error { return e.err }

// report accumulates the scan statistics. It implements
// analysis.Aggregator, so the pipeline feeds one shard per classifier
// worker through the Observe hook (no lock, no ordering requirement)
// and the shards merge into the printed report when the stream drains.
// The -v per-connection listing stays in the ordered sink, which is
// the only part of the output that needs decode order.
type report struct {
	total    int
	counts   [core.NumSignatures]int
	stages   [core.NumStages]int
	possibly int
	// evidenceAll counts, per tampering signature, the connections
	// with a valid IP-ID; evidenceBig those whose IP-ID delta tops 100.
	evidenceAll [core.NumSignatures]int
	evidenceBig [core.NumSignatures]int
}

func newReport() analysis.Aggregator { return &report{} }

// Add tallies one classified connection.
func (rep *report) Add(r *analysis.Record) {
	res := r.Res
	rep.total++
	rep.counts[res.Signature]++
	if res.PossiblyTampered {
		rep.possibly++
		rep.stages[res.Stage]++
	}
	if res.Signature.IsTampering() && res.Evidence.IPIDValid {
		rep.evidenceAll[res.Signature]++
		if res.Evidence.MaxIPIDDelta > 100 {
			rep.evidenceBig[res.Signature]++
		}
	}
}

// Merge folds another worker's shard into this one.
func (rep *report) Merge(other analysis.Aggregator) error {
	o, ok := other.(*report)
	if !ok {
		return fmt.Errorf("tamperscan: cannot merge %T into *report", other)
	}
	rep.total += o.total
	rep.possibly += o.possibly
	for s := range rep.counts {
		rep.counts[s] += o.counts[s]
		rep.evidenceAll[s] += o.evidenceAll[s]
		rep.evidenceBig[s] += o.evidenceBig[s]
	}
	for st := range rep.stages {
		rep.stages[st] += o.stages[st]
	}
	return nil
}

// Finalize returns the merged report itself.
func (rep *report) Finalize() any { return rep }

// verbosePrinter is the ordered pipeline sink behind -v: one line per
// connection, in decode order.
func verbosePrinter(tamperedOnly bool) pipeline.Sink {
	return func(it pipeline.Item) error {
		res := it.Res
		if tamperedOnly && !res.Signature.IsTampering() {
			return nil
		}
		domain := res.Domain
		if domain == "" {
			domain = "-"
		}
		fmt.Printf("%s:%d -> :%d  %-26s %-9s proto=%s domain=%s\n",
			it.Conn.SrcIP, it.Conn.SrcPort, it.Conn.DstPort,
			res.Signature, res.Stage, res.Protocol, domain)
		return nil
	}
}

func (rep *report) print() {
	fmt.Printf("connections:       %d\n", rep.total)
	fmt.Printf("possibly tampered: %d (%.1f%%)\n", rep.possibly,
		stats.Percent(stats.Ratio(rep.possibly, rep.total)))
	fmt.Println("\nsignature histogram:")
	var sigs []core.Signature
	for s := core.Signature(0); s < core.NumSignatures; s++ {
		if rep.counts[s] > 0 {
			sigs = append(sigs, s)
		}
	}
	sort.Slice(sigs, func(i, j int) bool { return rep.counts[sigs[i]] > rep.counts[sigs[j]] })
	for _, s := range sigs {
		evid := ""
		if n := rep.evidenceAll[s]; n > 0 {
			evid = fmt.Sprintf("  (IP-ID delta >100 in %.0f%%)",
				stats.Percent(stats.Ratio(rep.evidenceBig[s], n)))
		}
		fmt.Printf("  %-28s %8d  %5.1f%%%s\n", s, rep.counts[s],
			stats.Percent(stats.Ratio(rep.counts[s], rep.total)), evid)
	}
	fmt.Println("\nstage breakdown of possibly-tampered:")
	for st := core.StagePostSYN; st <= core.StageOther; st++ {
		if rep.stages[st] > 0 {
			fmt.Printf("  %-10s %8d  %5.1f%%\n", st, rep.stages[st],
				stats.Percent(stats.Ratio(rep.stages[st], rep.possibly)))
		}
	}
}

// testHookBeforeMetricsShutdown, when non-nil, is invoked with the
// metrics server's bound address after the scan finishes but before
// the server shuts down. The scripts/check.sh metrics gate test uses
// it to scrape /metrics and /healthz at a deterministic point.
var testHookBeforeMetricsShutdown func(addr string)

func run(path string, opts options) error {
	if opts.shards < 0 {
		return fmt.Errorf("-shards %d: want >= 0", opts.shards)
	}
	// The flight recorder, correlation ID, and tracer always exist:
	// batch-level span emission is allocation-free (pinned by
	// pipeline's TestTraceHotPathAllocationFree), and a crash dump must
	// be available even on runs that never asked for tracing. The run
	// ID doubles as the root trace ID, so log lines and spans join on
	// one key.
	fl := trace.NewFlight(trace.DefaultFlightEvents)
	runID := logx.NewRunID()
	log, err := logx.New(os.Stderr, opts.logFormat, runID, fl)
	if err != nil {
		return err
	}
	sample := opts.traceSample
	if sample < 0 {
		sample = 0
	}
	tcfg := trace.Config{TraceID: runID, SampleEvery: sample, Flight: fl}
	if opts.traceProfile != "" {
		tcfg.MaxProfile = 1 << 20
	}
	tracer := trace.New(tcfg)

	// dumpFlight writes the flight recorder (recent warn+ events and
	// the span rings) as JSON lines to stderr and, when set, to
	// -flight-out. Reasons name the trigger: signal-shutdown,
	// sharded-rescan.
	dumpFlight := func(reason string) {
		var buf bytes.Buffer
		if err := fl.Dump(&buf, reason); err != nil {
			return
		}
		os.Stderr.Write(buf.Bytes())
		if opts.flightOut != "" {
			if werr := os.WriteFile(opts.flightOut, buf.Bytes(), 0o644); werr != nil {
				log.Warn("flight dump write failed", "path", opts.flightOut, "err", werr)
			}
		}
	}

	src, tdcap, file, cleanup, err := openSource(path)
	if err != nil {
		return err
	}
	defer cleanup()
	w := opts.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}

	// Telemetry is constructed only when something will read it — the
	// metrics server or the progress reporter — so a bare scan keeps
	// zero overhead.
	var m pipeline.Metrics
	var tel *pipeline.Telemetry
	if opts.metricsAddr != "" {
		tel = pipeline.NewTelemetry(nil)
		srv, err := telemetry.NewServerWith(opts.metricsAddr, tel.Registry(),
			map[string]http.Handler{"/debug/tracez": trace.TracezHandler(tracer)})
		if err != nil {
			return err
		}
		log.Info("serving metrics", "url", srv.URL()+"/metrics", "tracez", srv.URL()+"/debug/tracez")
		defer func() {
			if testHookBeforeMetricsShutdown != nil {
				testHookBeforeMetricsShutdown(srv.Addr())
			}
			srv.Close()
		}()
	}
	if opts.progress > 0 {
		prev := m.Snapshot()
		prevAt := time.Now()
		rep := telemetry.StartReporterFunc(opts.progress, func() {
			d := m.Delta(prev)
			now := time.Now()
			rate := float64(d.Delivered) / now.Sub(prevAt).Seconds()
			prev, prevAt = m.Snapshot(), now
			s := m.Snapshot()
			log.Info("progress",
				"decoded", s.Decoded, "classified", s.Classified,
				"tampering", s.Tampering, "delivered", s.Delivered,
				"errors", s.Errors, "rate", int64(rate))
		})
		defer rep.Stop()
	}

	// SIGINT/SIGTERM cancel the pipeline's context: the workers drain,
	// the merged partial report still prints, and the push queue still
	// flushes (against its own deadline) before exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// scanOnce runs one full classify-aggregate-push cycle over one
	// work placement: sharded over an indexed capture's segments,
	// single-scanner TDCAP, or a pcap source. Aggregators are created
	// fresh per call so a discarded sharded attempt cannot leak into
	// the fallback rescan's report. The report aggregates per worker
	// through the Observe hook (no geo plan: a scan keys nothing by
	// country); the sink only exists for -v, and ordered delivery
	// keeps its listing deterministic across worker and shard counts.
	var pushErr error // a *pushLostError from the kept attempt's push
	scanOnce := func(seg *capture.SegmentedSource) (*report, error, error) {
		nworkers := w
		if seg != nil {
			// Sharded runs use one worker per shard at minimum; size the
			// per-worker observer shards to the resolved total.
			nworkers = pipeline.ShardWorkers(w, seg.Segments())
		}
		sharded := analysis.NewSharded(nil, nworkers, newReport)
		var sink pipeline.Sink
		if opts.verbose {
			sink = verbosePrinter(opts.tamperedOnly)
		}
		observe := sharded.Observe
		var fp *fleetPush
		if opts.pushURL != "" {
			var err error
			fp, err = newFleetPush(opts, &m, tracer, log)
			if err != nil {
				return nil, nil, err
			}
			observe = func(worker int, it pipeline.Item) {
				sharded.Observe(worker, it)
				fp.observe(it)
			}
		}
		cfg := pipeline.Config{
			Workers: w, Ordered: true, Observe: observe,
			Metrics: &m, Telemetry: tel, Tracer: tracer,
		}
		var runErr error
		switch {
		case seg != nil:
			_, runErr = pipeline.ShardedScan(ctx, seg, cfg, sink)
		case tdcap != nil:
			// TDCAP input goes through Stream so the parallel scanner
			// decodes in the worker pool; pcap input keeps its
			// incremental sampler source, whose decode cost lives in
			// the sampler anyway.
			_, runErr = pipeline.Stream(ctx, tdcap, cfg, sink)
		default:
			_, runErr = pipeline.Run(ctx, src, cfg, sink)
		}
		merged, err := sharded.Merged()
		if err != nil {
			return nil, nil, err
		}
		rep := merged.(*report)
		// A sharded attempt that errors for any reason other than
		// cancellation is discarded and rerun single-threaded (see the
		// caller), so its partial epoch must not be pushed.
		willRescan := seg != nil && runErr != nil && ctx.Err() == nil
		if fp != nil {
			if willRescan {
				fp.discard()
			} else if err := fp.finish(); err != nil {
				pushErr = &pushLostError{err}
			}
		}
		return rep, runErr, nil
	}

	var rep *report
	var runErr error
	if seg := segmentedSource(tdcap != nil, file, path, opts.shards, w, log); seg != nil {
		rep, runErr, err = scanOnce(seg)
		if err != nil {
			return err
		}
		if runErr != nil && ctx.Err() == nil {
			// Any scan error under a sharded placement is treated as index
			// distrust: a seam that passes the boundary re-validation can
			// still land mid-record and surface as a generic decode error,
			// so ErrBadIndex alone is not a reliable signal. The whole
			// capture is rescanned single-threaded from the start (the
			// sharded attempt read via ReadAt only, so the streaming
			// reader is still at offset zero); if the input itself is
			// damaged, the rescan reproduces the error over the true
			// record stream and the partial-report path below applies.
			// Cancellation is the one exception: the user asked to stop.
			log.Warn("sharded scan failed; discarding results and rescanning single-threaded", "err", runErr.Error())
			dumpFlight("sharded-rescan")
			rep, runErr, err = scanOnce(nil)
			if err != nil {
				return err
			}
		}
	} else if rep, runErr, err = scanOnce(nil); err != nil {
		return err
	}
	// Read the interrupt state before stop(): NotifyContext's stop
	// cancels the context itself, so checking afterwards would dump the
	// flight recorder on every clean run.
	interrupted := ctx.Err() != nil
	stop()
	if interrupted {
		dumpFlight("signal-shutdown")
	}
	if opts.traceProfile != "" {
		if dropped := tracer.ProfileDropped(); dropped > 0 {
			log.Warn("trace profile truncated", "dropped_spans", dropped)
		}
		if err := trace.WriteChromeFile(opts.traceProfile, tracer); err != nil {
			log.Warn("trace profile export failed", "path", opts.traceProfile, "err", err.Error())
		} else {
			log.Info("trace profile written", "path", opts.traceProfile)
		}
	}
	if runErr != nil {
		if rep.total == 0 {
			return runErr
		}
		// Truncated/corrupt tail (or a signal) after a good prefix:
		// report what was classified, then surface the early end with a
		// distinct exit code.
		log.Warn("scan ended early; reporting the scanned prefix", "err", runErr.Error(), "connections", rep.total)
		rep.print()
		return errors.Join(&partialError{err: runErr}, pushErr)
	}
	rep.print()
	return pushErr
}

// openSource auto-detects TDCAP vs pcap input; "-" reads a stream
// (either format) from stdin. TDCAP input comes back as the raw
// reader (second return) so run can use the parallel scan pipeline;
// pcap comes back as a connection source (first return). When the
// input is a regular TDCAP file, the open *os.File also comes back
// (third return) so the sharded path can read segments via ReadAt —
// which never moves the file offset, so the streaming reader stays
// usable for the fallback path.
func openSource(path string) (pipeline.Source, io.Reader, *os.File, func(), error) {
	var r io.Reader
	var file *os.File
	cleanup := func() {}
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cleanup = func() { f.Close() }
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			file = f
		}
		r = f
	}
	br := bufio.NewReader(r)
	magic, err := br.Peek(8)
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if string(magic[:5]) == "TDCAP" {
		return nil, br, file, cleanup, nil
	}
	src, err := newPcapSource(br)
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	return src, nil, nil, cleanup, nil
}

// segmentedSource decides whether this scan can shard: TDCAP input, a
// seekable file, a loadable index, and -shards != 1. Every reason it
// cannot is at worst a stderr warning — the single-scanner path is
// always available and always correct — but an index that exists and
// cannot be trusted is reported unconditionally, while the mundane
// "no index" case only warns when -shards > 1 asked for sharding
// explicitly.
func segmentedSource(isTDCAP bool, f *os.File, path string, shards, workers int, log *slog.Logger) *capture.SegmentedSource {
	if !isTDCAP || shards == 1 {
		return nil
	}
	explicit := shards > 1
	quiet := func(msg string, args ...any) {
		if explicit {
			log.Warn(msg, args...)
		}
	}
	if f == nil {
		quiet("sharded ingest needs a seekable capture file; scanning single-threaded")
		return nil
	}
	fi, err := f.Stat()
	if err != nil {
		quiet("capture stat failed; scanning single-threaded", "path", path, "err", err.Error())
		return nil
	}
	idx, err := capture.FindIndex(f, fi.Size(), path)
	if err != nil {
		if errors.Is(err, capture.ErrNoIndex) {
			quiet("no segment index (build one with tdcapindex); scanning single-threaded", "path", path)
		} else {
			log.Warn("segment index unusable; scanning single-threaded", "path", path, "err", err.Error())
		}
		return nil
	}
	if shards == 0 {
		shards = workers
	}
	seg, err := capture.NewSegmentedSource(f, fi.Size(), idx, shards)
	if err != nil {
		log.Warn("sharded source unavailable; scanning single-threaded", "path", path, "err", err.Error())
		return nil
	}
	return seg
}

// pcapSource runs raw packets through the paper's sampling pipeline as
// they are read, emitting connection records incrementally: long-idle
// flows are evicted every 300 s of capture time, and the remainder is
// drained at EOF. Both directions may be present in the file; the
// sampler keeps only inbound (client→server) packets, keyed by each
// flow's initial SYN, exactly as the deployment does.
type pcapSource struct {
	ch  chan *capture.Connection
	err error // set before ch closes
}

func newPcapSource(r io.Reader) (*pcapSource, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	s := &pcapSource{ch: make(chan *capture.Connection, 64)}
	go func() {
		defer close(s.ch)
		sampler := capture.NewSampler(capture.DefaultConfig())
		emit := func(conns []*capture.Connection) {
			for _, c := range conns {
				s.ch <- c
			}
		}
		var first, last, lastSweep int64 = -1, 0, 0
		for {
			p, err := pr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.err = err
				return
			}
			if len(p.Data) == 0 {
				continue
			}
			if first < 0 {
				first = p.TimestampNanos
			}
			last = p.TimestampNanos
			// Rebase to the capture's own epoch so record timestamps are
			// small offsets, like the simulator's.
			at := netsim.Time(p.TimestampNanos - first)
			sampler.Inbound(at, p.Data)
			// Periodically evict long-idle flows so arbitrarily large
			// captures stream in bounded memory.
			if sec := at.Unix(); sec-lastSweep >= 300 {
				lastSweep = sec
				emit(sampler.DrainIdle(at, 120))
			}
		}
		closeAt := netsim.Time(last - first).Add(60e9)
		emit(sampler.Drain(closeAt))
	}()
	return s, nil
}

// Next yields the next sampled connection.
func (s *pcapSource) Next() (*capture.Connection, error) {
	c, ok := <-s.ch
	if !ok {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	return c, nil
}
