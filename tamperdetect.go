// Package tamperdetect passively detects connection tampering from
// server-side packet captures, implementing the tampering-signature
// taxonomy and classifier of "Global, Passive Detection of Connection
// Tampering" (SIGCOMM 2023).
//
// The library classifies each observed TCP connection — given only its
// inbound packets, 1-second timestamps, and a 10-packet capture window
// — into one of 19 tampering signatures (RST injection and packet-drop
// patterns at four connection stages), "not tampering", or an
// uncovered anomaly, and computes the supporting evidence the paper
// validates with: IP-ID and TTL deltas of suspected injected packets
// and scanner fingerprints.
//
// Quick start (batch):
//
//	cl := tamperdetect.NewClassifier(tamperdetect.DefaultConfig())
//	conns, err := tamperdetect.ReadCaptureFile("sample.tdcap")
//	...
//	for _, conn := range conns {
//		res := cl.Classify(conn)
//		if res.Signature.IsTampering() {
//			fmt.Println(res.Signature, res.Domain)
//		}
//	}
//
// Quick start (streaming): Stream classifies a capture of any size in
// constant memory through a backpressured worker pool, calling the
// sink from a single goroutine:
//
//	f, _ := os.Open("sample.tdcap")
//	defer f.Close()
//	counts, err := tamperdetect.Stream(context.Background(), f,
//		tamperdetect.StreamConfig{Ordered: true},
//		func(it tamperdetect.StreamItem) error {
//			if it.Res.Signature.IsTampering() {
//				fmt.Println(it.Res.Signature, it.Res.Domain)
//			}
//			return nil
//		})
//	fmt.Println(counts.Classified, "classified,", counts.Tampering, "tampering")
//
// The internal packages provide the full reproduction substrate: a
// wire-accurate packet codec (internal/packet), TLS/HTTP trigger
// parsers, TCP endpoint simulators, DPI middlebox models of known
// censors, the capture pipeline, a global traffic scenario generator,
// and the analysis code regenerating every table and figure of the
// paper (run cmd/paperbench).
package tamperdetect

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/telemetry"
)

// Re-exported core types: the classifier's public surface.
type (
	// Signature is one of the 19 tampering signatures (Table 1), or
	// SigNotTampering / SigOtherAnomalous.
	Signature = core.Signature
	// Stage is the connection stage a signature belongs to.
	Stage = core.Stage
	// Result is a classified connection.
	Result = core.Result
	// Evidence holds injection-evidence metrics and scanner
	// fingerprints.
	Evidence = core.Evidence
	// Protocol is the application protocol of a connection.
	Protocol = core.Protocol
	// Config tunes the classifier.
	Config = core.Config
	// Classifier applies the signature taxonomy.
	Classifier = core.Classifier
	// Connection is one sampled connection's inbound record.
	Connection = capture.Connection
	// PacketRecord is one logged inbound packet.
	PacketRecord = capture.PacketRecord

	// StreamConfig tunes the streaming classification pipeline used by
	// Stream: worker count, channel depth, ordered delivery, and an
	// optional live Metrics sink.
	StreamConfig = pipeline.Config
	// StreamItem is one classified connection delivered by Stream.
	StreamItem = pipeline.Item
	// StreamCounts is the pipeline's per-stage counter snapshot:
	// decoded, classified, tampering, delivered, errors, dropped.
	StreamCounts = pipeline.Counts
	// StreamMetrics holds live per-stage counters observable while a
	// Stream is in flight (pass one via StreamConfig.Metrics).
	StreamMetrics = pipeline.Metrics
	// StreamTelemetry is the full pipeline instrument set — per-stage
	// latency histograms, queue-depth gauges, per-signature and
	// per-disposition counters, capture throughput — registered in a
	// MetricsRegistry (pass one via StreamConfig.Telemetry). Build
	// with NewStreamTelemetry; serve with ServeMetrics.
	StreamTelemetry = pipeline.Telemetry
	// MetricsRegistry holds registered instruments and writes
	// Prometheus text (WritePrometheus) or JSON (WriteJSON)
	// expositions.
	MetricsRegistry = telemetry.Registry
	// MetricsServer serves a MetricsRegistry over HTTP: /metrics,
	// /metrics.json, /healthz, /debug/vars, /debug/pprof/.
	MetricsServer = telemetry.Server

	// Aggregator is one incrementally computed paper table: records
	// stream in via Add, independently built aggregators combine via
	// Merge (the multi-PoP rollup), and Finalize renders the table.
	// Every finalized table is a pure function of the record multiset,
	// so worker count, shard partitioning, and merge order never change
	// the output.
	Aggregator = analysis.Aggregator
	// AggMulti composes aggregators so one streaming pass fills all of
	// them.
	AggMulti = analysis.Multi
	// AnalysisRecord is one classified connection with its aggregation
	// keys (country, ASN, IP version, hour, client key, ports).
	AnalysisRecord = analysis.Record
	// GeoDB is the synthetic IP→(country, AS) plan aggregation keys
	// come from. May be nil when geography does not matter.
	GeoDB = geo.DB
)

// Aggregator implementations and their finalized tables, re-exported
// so StreamAnalyze results can be type-asserted and finalized outside
// this module. Each *Agg type's typed finalize method computes the
// corresponding paper table.
type (
	StageStatsAgg         = analysis.StageStatsAgg         // §4.1 — Stats() StageStats
	SignatureByCountryAgg = analysis.SignatureByCountryAgg // Fig 4 — Table()
	CountryBySignatureAgg = analysis.CountryBySignatureAgg // Fig 1 — Table()
	ASNViewAgg            = analysis.ASNViewAgg            // Fig 5 — View(country)
	TimeSeriesAgg         = analysis.TimeSeriesAgg         // Figs 6/8/9 — Series()
	IPVersionAgg          = analysis.IPVersionAgg          // Fig 7a — Table()
	ProtocolAgg           = analysis.ProtocolAgg           // Fig 7b — Table()
	EvidenceAgg           = analysis.EvidenceAgg           // Figs 2/3 — CDFs()
	ScannerAgg            = analysis.ScannerAgg            // §4.2 — Stats()
	DomainAgg             = analysis.DomainAgg             // Tables 2/3, §5.5
	OverlapAgg            = analysis.OverlapAgg            // Fig 10 — Matrix()
	StabilityAgg          = analysis.StabilityAgg          // §6 — Report()
	RobustnessAgg         = analysis.RobustnessAgg         // FP matrix — Grade()

	StageStats           = analysis.StageStats
	CountryDistribution  = analysis.CountryDistribution
	SignatureComposition = analysis.SignatureComposition
	ASNStat              = analysis.ASNStat
	SeriesPoint          = analysis.SeriesPoint
	VersionComparison    = analysis.VersionComparison
	ProtocolComparison   = analysis.ProtocolComparison
	EvidenceCDFs         = analysis.EvidenceCDFs
	ScannerStats         = analysis.ScannerStats
	CategoryTable        = analysis.CategoryTable
	ListCoverageRow      = analysis.ListCoverageRow
	OverlapMatrix        = analysis.OverlapMatrix
	StabilityRow         = analysis.StabilityRow
	RobustnessGrade      = analysis.RobustnessGrade
)

// ErrStopStream may be returned by a Stream sink to stop the pipeline
// early without error.
var ErrStopStream = pipeline.ErrStop

// Signature constants, re-exported for matching on results.
const (
	SigNotTampering = core.SigNotTampering

	SigSYNTimeout   = core.SigSYNTimeout
	SigSYNRST       = core.SigSYNRST
	SigSYNRSTACK    = core.SigSYNRSTACK
	SigSYNRSTRSTACK = core.SigSYNRSTRSTACK

	SigACKTimeout      = core.SigACKTimeout
	SigACKRST          = core.SigACKRST
	SigACKRSTRST       = core.SigACKRSTRST
	SigACKRSTACK       = core.SigACKRSTACK
	SigACKRSTACKRSTACK = core.SigACKRSTACKRSTACK

	SigPSHTimeout      = core.SigPSHTimeout
	SigPSHRST          = core.SigPSHRST
	SigPSHRSTACK       = core.SigPSHRSTACK
	SigPSHRSTRSTACK    = core.SigPSHRSTRSTACK
	SigPSHRSTACKRSTACK = core.SigPSHRSTACKRSTACK
	SigPSHRSTEqRST     = core.SigPSHRSTEqRST
	SigPSHRSTNeqRST    = core.SigPSHRSTNeqRST
	SigPSHRSTRSTZero   = core.SigPSHRSTRSTZero

	SigDataRST    = core.SigDataRST
	SigDataRSTACK = core.SigDataRSTACK

	SigOtherAnomalous = core.SigOtherAnomalous
)

// Stage constants.
const (
	StageNone     = core.StageNone
	StagePostSYN  = core.StagePostSYN
	StagePostACK  = core.StagePostACK
	StagePostPSH  = core.StagePostPSH
	StagePostData = core.StagePostData
	StageOther    = core.StageOther
)

// DefaultConfig returns the paper's deployment parameters: 3-second
// inactivity threshold, 10-packet capture window.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewClassifier builds a classifier; it is safe for concurrent use.
func NewClassifier(cfg Config) *Classifier { return core.NewClassifier(cfg) }

// AllSignatures lists the 19 tampering signatures in Table 1 order.
func AllSignatures() []Signature { return core.AllSignatures() }

// Reconstruct restores likely arrival order of a connection's packets
// from headers, despite 1-second timestamp granularity.
func Reconstruct(c *Connection) []PacketRecord { return capture.Reconstruct(c) }

// ReadCapture streams connection records from a TDCAP capture.
func ReadCapture(r io.Reader) ([]*Connection, error) {
	return capture.NewReader(r).ReadAll()
}

// ReadCaptureFile loads a TDCAP capture file.
func ReadCaptureFile(path string) ([]*Connection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tamperdetect: %w", err)
	}
	defer f.Close()
	conns, err := ReadCapture(f)
	if err != nil {
		return conns, fmt.Errorf("tamperdetect: reading %s: %w", path, err)
	}
	return conns, nil
}

// NewMetricsRegistry returns an empty instrument registry for
// ServeMetrics or caller-side instruments alongside NewStreamTelemetry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewStreamTelemetry registers the streaming pipeline's instrument set
// in reg (nil gets a private registry) and returns the handle to pass
// as StreamConfig.Telemetry. One StreamTelemetry may be shared across
// sequential or concurrent Stream / StreamAnalyze calls; its counters
// and histograms accumulate. The hot path stays allocation-free with
// telemetry attached.
//
//	tel := tamperdetect.NewStreamTelemetry(nil)
//	srv, _ := tamperdetect.ServeMetrics("127.0.0.1:9090", tel.Registry())
//	defer srv.Close()
//	counts, err := tamperdetect.Stream(ctx, f,
//		tamperdetect.StreamConfig{Telemetry: tel}, nil)
func NewStreamTelemetry(reg *MetricsRegistry) *StreamTelemetry {
	return pipeline.NewTelemetry(reg)
}

// ServeMetrics starts an HTTP server exposing reg on addr (host:port;
// port 0 picks an ephemeral port — see MetricsServer.Addr). Close the
// returned server to shut it down gracefully.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return telemetry.NewServer(addr, reg)
}

// Stream reads a TDCAP capture incrementally from r and classifies it
// through a backpressured worker pool, delivering each classified
// connection to fn from a single goroutine: a scanner goroutine finds
// record boundaries and the workers decode and classify, so throughput
// scales with cfg.Workers (this is the single-front form of the one
// ingest engine in internal/pipeline). It processes captures of any
// size in constant memory and blocks until the pipeline has drained —
// on EOF, on error, or on ctx cancellation. fn may be nil to only
// count, and may return ErrStopStream to stop early without error.
func Stream(ctx context.Context, r io.Reader, cfg StreamConfig, fn func(StreamItem) error) (StreamCounts, error) {
	return pipeline.Stream(ctx, r, cfg, fn)
}

// Aggregator constructors, re-exported from internal/analysis. Each
// returns a concrete aggregator whose typed finalize methods (Stats,
// Table, View, Series, CDFs, Matrix, Report, …) compute the
// corresponding paper table; Finalize returns the same value as `any`.
var (
	// NewStageStatsAgg aggregates the §4.1 stage breakdown.
	NewStageStatsAgg = analysis.NewStageStatsAgg
	// NewSignatureByCountryAgg aggregates Figure 4.
	NewSignatureByCountryAgg = analysis.NewSignatureByCountryAgg
	// NewCountryBySignatureAgg aggregates Figure 1.
	NewCountryBySignatureAgg = analysis.NewCountryBySignatureAgg
	// NewASNViewAgg aggregates Figure 5 for every country at once.
	NewASNViewAgg = analysis.NewASNViewAgg
	// NewTimeSeriesAgg aggregates a Figures 6/8/9 longitudinal series.
	NewTimeSeriesAgg = analysis.NewTimeSeriesAgg
	// NewIPVersionAgg aggregates Figure 7a.
	NewIPVersionAgg = analysis.NewIPVersionAgg
	// NewProtocolAgg aggregates Figure 7b.
	NewProtocolAgg = analysis.NewProtocolAgg
	// NewEvidenceAgg aggregates the Figures 2/3 evidence CDFs.
	NewEvidenceAgg = analysis.NewEvidenceAgg
	// NewScannerAgg aggregates the §4.2 scanner fingerprints.
	NewScannerAgg = analysis.NewScannerAgg
	// NewDomainAgg aggregates the per-domain counts behind Tables 2/3
	// and the §5.5 observation set.
	NewDomainAgg = analysis.NewDomainAgg
	// NewOverlapAgg aggregates the Figure 10 overlap matrix.
	NewOverlapAgg = analysis.NewOverlapAgg
	// NewStabilityAgg aggregates the §6 stability report.
	NewStabilityAgg = analysis.NewStabilityAgg
	// NewRobustnessAgg aggregates one impairment grade's
	// false-positive cell.
	NewRobustnessAgg = analysis.NewRobustnessAgg
)

// StreamAnalyze streams a TDCAP capture through the classification
// pipeline and aggregates every record incrementally: each pipeline
// worker owns a private aggregator shard (built by fresh) and a
// private geo lookup cache, records are added lock-free from the
// worker that classified them, and the shards merge into the returned
// aggregator when the stream ends. Nothing is buffered beyond the
// pipeline's bounded queues and the aggregator state itself; that
// state is bounded by key counts for most aggregators, but
// NewOverlapAgg (Figure 10) keeps one observation per domain-visible
// record on its axes, so it grows with capture size.
//
//	agg, counts, err := tamperdetect.StreamAnalyze(ctx, f,
//		tamperdetect.StreamConfig{Workers: 8}, nil,
//		func() tamperdetect.Aggregator { return tamperdetect.NewStageStatsAgg() })
//	stats := agg.(*tamperdetect.StageStatsAgg).Stats()
//
// fresh must return a new identically-parameterised aggregator on
// every call (use AggMulti to fill several tables in one pass); db may
// be nil, leaving country/AS keys empty. The result is byte-identical
// across worker counts: aggregators are pure functions of the record
// multiset.
func StreamAnalyze(ctx context.Context, r io.Reader, cfg StreamConfig, db *GeoDB, fresh func() Aggregator) (Aggregator, StreamCounts, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		cfg.Workers = workers
	}
	sharded := analysis.NewSharded(db, workers, fresh)
	prev := cfg.Observe
	cfg.Observe = func(worker int, it StreamItem) {
		sharded.Observe(worker, it)
		if prev != nil {
			prev(worker, it)
		}
	}
	counts, err := pipeline.Stream(ctx, r, cfg, nil)
	if err != nil {
		return nil, counts, err
	}
	agg, err := sharded.Merged()
	return agg, counts, err
}

// WriteCaptureFile stores connection records as a TDCAP capture file.
func WriteCaptureFile(path string, conns []*Connection) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tamperdetect: %w", err)
	}
	defer func() {
		// Single close for every path; a close failure after a clean
		// flush is a real write error and must surface.
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("tamperdetect: closing %s: %w", path, cerr)
		}
	}()
	w := capture.NewWriter(f)
	for _, c := range conns {
		if err := w.Write(c); err != nil {
			return fmt.Errorf("tamperdetect: writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("tamperdetect: flushing %s: %w", path, err)
	}
	return nil
}
