package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/fleet"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/middlebox"
	"tamperdetect/internal/pipeline"
	"tamperdetect/internal/trace"
	"tamperdetect/internal/workload"
)

// The ledger is the traced run: it times calls into each module's public
// functions, single-threaded (GOMAXPROCS 1 except for the explicit .wN/.sN
// cells), and reconciles their sum with the -workers 1 end-to-end time
// per operation that the orchestrator measured on the real CLIs.

const (
	ledgerReps     = 3     // repetitions of each in-process stage; the median is reported
	ledgerSimSpecs = 20000 // specs simulated in process
	// remainderFloor is how far below zero a remainder may fall, as a
	// share of the workload's end-to-end time, before the stage timings
	// contradict the whole and the ledger fails.
	remainderFloor = -0.15
)

// cliRun is one subprocess pass the orchestrator timed for the ledger.
type cliRun struct {
	Workload string `json:"workload"`
	Workers  int    `json:"workers"` // 1 (run with GOMAXPROCS=1) or nproc
	StartNS  int64  `json:"start_unix_ns"`
	EndNS    int64  `json:"end_unix_ns"`
	Ops      int    `json:"ops"`
}

// ledgerInput is what the orchestrator hands the ledger role.
type ledgerInput struct {
	OriginNS  int64      `json:"origin_unix_ns"` // zero of the span clock
	Seed      uint64     `json:"seed"`
	Capture   string     `json:"capture"`
	Workers   int        `json:"workers"`
	BuildS    float64    `json:"build_s"`
	Runs      []cliRun   `json:"runs"`
	Fleet1    fleetPass  `json:"fleet_1"`         // one pusher
	FleetN    fleetPass  `json:"fleet_n"`         // nproc pushers
	FleetLat  fleetStats `json:"fleet_latencies"` // of the nproc-pusher pass
	TraceOut  string     `json:"trace_out"`
	ResultOut string     `json:"result_out"`
}

// ledgerResult is what the role hands back.
type ledgerResult struct {
	Metrics  map[string]float64 `json:"metrics"`
	Ops      int                `json:"ops"`
	Problems []string           `json:"problems"`
}

type ledger struct {
	in       ledgerInput
	log      *spanLog
	m        map[string]float64
	ops      int
	problems []string
	records  int           // in the capture
	self     map[int]int64 // selfTimes of the first selfN spans
	selfN    int
}

func (l *ledger) fail(format string, a ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, a...))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ledgerRole(inPath string) error {
	raw, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	l := &ledger{m: map[string]float64{}}
	if err := json.Unmarshal(raw, &l.in); err != nil {
		return fmt.Errorf("%s: %w", inPath, err)
	}
	l.log = &spanLog{origin: time.Unix(0, l.in.OriginNS)}
	runtime.GOMAXPROCS(1)

	root := l.log.start("ledger", "", 0)
	for _, r := range l.in.Runs {
		l.log.add(fmt.Sprintf("cli.%s.w%d", r.Workload, r.Workers), r.Workload, root,
			r.StartNS-l.in.OriginNS, r.EndNS-l.in.OriginNS, r.Ops)
		l.ops += r.Ops
	}
	for _, fp := range []fleetPass{l.in.Fleet1, l.in.FleetN} {
		l.log.add("cli.fleet-merge", wlFleetMerge, root,
			fp.StartUnixNS-l.in.OriginNS, fp.StartUnixNS+fp.WallNS-l.in.OriginNS, fleetFrames)
		l.ops += fleetFrames
	}
	for _, section := range []func(int) error{l.genSection, l.scanSection, l.pipelineSection, l.fleetSection} {
		if err := section(root); err != nil {
			return err
		}
	}
	l.log.end(root, l.ops)
	l.derive()

	if err := l.log.write(l.in.TraceOut); err != nil {
		return err
	}
	out, err := json.Marshal(ledgerResult{Metrics: l.m, Ops: l.ops, Problems: l.problems})
	if err != nil {
		return err
	}
	return os.WriteFile(l.in.ResultOut, out, 0o644)
}

// stage returns the named stage's self time per operation (ns).
func (l *ledger) stage(name string) float64 {
	if l.selfN != len(l.log.spans) {
		l.self, l.selfN = selfTimes(l.log.spans), len(l.log.spans)
	}
	return perOp(l.log.spans, l.self, name)
}

// genSection times the write path's layers: scenario build, spec
// expansion, per-connection simulation, and (on the simulated records)
// DPI domain extraction and geo lookups.
func (l *ledger) genSection(root int) error {
	const wl = wlGenCapture
	sec := l.log.start("section.gen", wl, root)
	defer func() { l.log.end(sec, 0) }()

	id := l.log.start("workload.build", wl, sec)
	scen, err := workload.BuildScenario("global", genTotal, 14*24, l.in.Seed)
	l.log.end(id, 1)
	if err != nil {
		return err
	}
	id = l.log.start("workload.specs", wl, sec)
	specs := scen.SpecsSharded(1)
	l.log.end(id, len(specs))

	specs = specs[:min(ledgerSimSpecs, len(specs))]
	var censored, clean []*workload.ConnSpec
	for i := range specs {
		if specs[i].CensorActive {
			censored = append(censored, &specs[i])
		} else {
			clean = append(clean, &specs[i])
		}
	}
	var allocs uint64
	var conns []*capture.Connection
	for rep := 0; rep < ledgerReps; rep++ {
		conns = conns[:0]
		parent := l.log.start("rep.simulate", wl, sec)
		simulate := func(name string, part []*workload.ConnSpec) {
			l.log.batches(name, wl, parent, len(part), func(lo, hi int) {
				for _, spec := range part[lo:hi] {
					if c := workload.SimulateConn(spec, scen.Universe, scen.CaptureConfig, scen.Impairments); c != nil {
						conns = append(conns, c)
					}
				}
			})
		}
		m0 := mallocs()
		simulate("workload.simulate.censored", censored)
		simulate("workload.simulate.clean", clean)
		allocs = mallocs() - m0
		l.log.end(parent, len(specs))
	}
	l.ops += ledgerReps * len(specs)
	l.m["workload.build_ms"] = l.stage("workload.build") / 1e6
	l.m["workload.specs_us_per_conn"] = l.stage("workload.specs") / 1e3
	l.m["workload.simulate_us_per_conn.censored"] = l.stage("workload.simulate.censored") / 1e3
	l.m["workload.simulate_us_per_conn.clean"] = l.stage("workload.simulate.clean") / 1e3
	l.m["workload.simulate_us_per_conn"] = (l.m["workload.simulate_us_per_conn.censored"]*float64(len(censored)) +
		l.m["workload.simulate_us_per_conn.clean"]*float64(len(clean))) / float64(len(specs))
	l.m["workload.allocs_per_conn"] = float64(allocs) / float64(len(specs))
	l.m["workload.sampled_ratio"] = float64(len(conns)) / float64(len(specs))

	var payloads [][]byte
	addrs := make([]netip.Addr, len(conns))
	for i, c := range conns {
		addrs[i] = c.SrcIP
		for j := range c.Packets {
			if p := c.Packets[j].Payload; len(p) > 0 {
				payloads = append(payloads, p)
				break
			}
		}
	}
	cache := geo.NewCache(scen.Geo)
	found := 0
	for rep := 0; rep < ledgerReps; rep++ {
		parent := l.log.start("rep.lookup", wl, sec)
		l.log.batches("middlebox.domain_of", wl, parent, len(payloads), func(lo, hi int) {
			for _, p := range payloads[lo:hi] {
				if middlebox.DomainOf(p) != "" {
					found++
				}
			}
		})
		l.log.batches("geo.lookup.uncached", wl, parent, len(addrs), func(lo, hi int) {
			for _, a := range addrs[lo:hi] {
				if scen.Geo.Lookup(a) != nil {
					found++
				}
			}
		})
		l.log.batches("geo.lookup.cached", wl, parent, len(addrs), func(lo, hi int) {
			for _, a := range addrs[lo:hi] {
				if cache.Lookup(a) != nil {
					found++
				}
			}
		})
		l.log.end(parent, 0)
	}
	if found == 0 {
		l.fail("no simulated connection carried a domain or resolved to an AS")
	}
	l.m["middlebox.domain_of_ns"] = l.stage("middlebox.domain_of")
	l.m["geo.lookup_ns.uncached"] = l.stage("geo.lookup.uncached")
	l.m["geo.lookup_ns.cached"] = l.stage("geo.lookup.cached")
	return nil
}

// scanSection walks the capture batchSize records at a time and times
// every read-side stage on each batch in turn: boundary scan, decode,
// order reconstruction, classification, record construction, each
// aggregator's Add, and re-encoding.
func (l *ledger) scanSection(root int) error {
	const wl = wlScanVerdicts
	sec := l.log.start("section.scan", wl, root)
	defer func() { l.log.end(sec, 0) }()
	data, err := os.ReadFile(l.in.Capture)
	if err != nil {
		return err
	}
	f, idx, err := openCapture(l.in.Capture)
	if err != nil {
		return err
	}
	defer f.Close()
	l.records = idx.Records
	l.m["capture.bytes_per_rec"] = float64(idx.DataSize) / float64(idx.Records)

	cl := core.NewClassifier(core.DefaultConfig())
	resolver := geo.NewCache(nil)
	conns := make([]capture.Connection, batchSize)
	results := make([]core.Result, batchSize)
	records := make([]analysis.Record, batchSize)
	var slab []byte
	offs := make([]int, 0, batchSize+1)
	var recon []capture.PacketRecord
	tampering := 0

	// pass walks the whole capture once. With allocs nil every stage is
	// a span under parent; otherwise no span is recorded and the stage's
	// heap allocations are counted instead.
	pass := func(parent int, allocs map[string]uint64) error {
		// stage reads *n only after fn has run: the scan stage learns its
		// count by scanning.
		stage := func(name, tag string, n *int, fn func()) {
			if allocs != nil {
				m0 := mallocs()
				fn()
				allocs[name] += mallocs() - m0
				return
			}
			id := l.log.start(name, tag, parent)
			fn()
			l.log.end(id, *n)
		}
		sc := capture.NewScanner(bytes.NewReader(data))
		var scratch core.Scratch
		fleetAggs, single := analysis.NewFleetAggs(), analysis.NewFleetAggs()
		w := capture.NewWriter(io.Discard)
		if err := w.EnableIndex(capture.DefaultIndexInterval); err != nil {
			return err
		}
		tampering = 0
		for eof := false; !eof; {
			var scanErr error
			n := 0
			stage("capture.scan", wl, &n, func() {
				slab, offs = slab[:0], append(offs[:0], 0)
				for len(offs) <= batchSize {
					next, err := sc.Next(slab)
					if err != nil {
						eof = true
						if err != io.EOF {
							scanErr = err
						}
						break
					}
					slab = next
					offs = append(offs, len(slab))
				}
				n = len(offs) - 1
			})
			if scanErr != nil {
				return scanErr
			}
			if n == 0 {
				break
			}
			var stageErr error
			stage("capture.decode", wl, &n, func() {
				for i := 0; i < n; i++ {
					if err := capture.DecodeRecord(slab[offs[i]:offs[i+1]], &conns[i]); err != nil {
						stageErr = err
					}
				}
			})
			stage("capture.reconstruct", wl, &n, func() {
				for i := 0; i < n; i++ {
					recon = capture.ReconstructInto(&conns[i], recon)
				}
			})
			stage("core.classify", wl, &n, func() {
				for i := 0; i < n; i++ {
					results[i] = cl.ClassifyWith(&conns[i], &scratch)
				}
			})
			stage("analysis.record", wlScanReport, &n, func() {
				for i := 0; i < n; i++ {
					records[i] = analysis.NewRecord(&conns[i], resolver, results[i])
				}
			})
			stage("analysis.add.fleet", wlScanReport, &n, func() {
				for i := 0; i < n; i++ {
					fleetAggs.Add(&records[i])
				}
			})
			for k, agg := range single {
				stage("analysis.add."+fleetAggNames[k], wlScanReport, &n, func() {
					for i := 0; i < n; i++ {
						agg.Add(&records[i])
					}
				})
			}
			stage("capture.encode", wlGenCapture, &n, func() {
				for i := 0; i < n; i++ {
					if err := w.Write(&conns[i]); err != nil {
						stageErr = err
					}
				}
			})
			if stageErr != nil {
				return stageErr
			}
			for i := 0; i < n; i++ {
				if results[i].Signature.IsTampering() {
					tampering++
				}
			}
		}
		if sc.Count() != idx.Records {
			return fmt.Errorf("%s: scanned %d records, index promises %d", l.in.Capture, sc.Count(), idx.Records)
		}
		return w.Flush()
	}

	for rep := 0; rep < ledgerReps; rep++ {
		parent := l.log.start("rep.scan", wl, sec)
		err := pass(parent, nil)
		l.log.end(parent, idx.Records)
		if err != nil {
			return err
		}
	}
	allocs := map[string]uint64{}
	if err := pass(0, allocs); err != nil {
		return err
	}
	l.ops += (ledgerReps + 1) * idx.Records
	perRec := func(name string) float64 { return float64(allocs[name]) / float64(idx.Records) }

	l.m["capture.scan_ns_per_rec"] = l.stage("capture.scan")
	l.m["capture.decode_ns_per_rec"] = l.stage("capture.decode")
	l.m["capture.reconstruct_ns_per_rec"] = l.stage("capture.reconstruct")
	l.m["capture.encode_ns_per_rec"] = l.stage("capture.encode")
	l.m["capture.decode_allocs_per_rec"] = perRec("capture.decode")
	// ClassifyWith reconstructs packet order itself; what is left after
	// taking that out is the classifier's own time.
	l.m["core.classify_ns_per_rec"] = l.stage("core.classify") - l.stage("capture.reconstruct")
	l.m["core.classify_allocs_per_rec"] = perRec("core.classify")
	l.m["core.tampering_share"] = float64(tampering) / float64(idx.Records)
	l.m["analysis.record_ns_per_rec"] = l.stage("analysis.record")
	l.m["analysis.add_ns_per_rec.fleet"] = l.stage("analysis.add.fleet")
	for _, a := range fleetAggNames {
		l.m["analysis.add_ns_per_rec."+a] = l.stage("analysis.add." + a)
	}
	l.m["analysis.add_allocs_per_rec"] = perRec("analysis.add.fleet")

	for rep := 0; rep < 5*ledgerReps; rep++ {
		id := l.log.start("capture.index_open", wl, sec)
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		idx, err := capture.FindIndex(f, fi.Size(), "")
		if err != nil {
			return err
		}
		if _, err := capture.NewSegmentedSource(f, fi.Size(), idx, l.in.Workers); err != nil {
			return err
		}
		l.log.end(id, 1)
	}
	l.m["capture.index_open_us"] = median(spanDurations(l.log.spans, "capture.index_open")) / 1e3
	return nil
}

// pipelineSection times pipeline.Stream and pipeline.ShardedScan over the
// capture file as wholes, bare and with each instrument set attached.
func (l *ledger) pipelineSection(root int) error {
	const wl = wlScanVerdicts
	sec := l.log.start("section.pipeline", wl, root)
	defer func() { l.log.end(sec, 0) }()
	ctx := context.Background()
	n := l.in.Workers

	type cell struct {
		name     string
		procs    int
		sharded  bool
		cfg      func() pipeline.Config
		counting bool // deliver to a sink that counts, in order
	}
	cells := []cell{
		{name: "pipeline.stream.w1", procs: 1, cfg: func() pipeline.Config { return pipeline.Config{Workers: 1} }},
		{name: "pipeline.stream.ordered_sink", procs: 1, counting: true,
			cfg: func() pipeline.Config { return pipeline.Config{Workers: 1, Ordered: true} }},
		{name: "pipeline.stream.telemetry", procs: 1,
			cfg: func() pipeline.Config { return pipeline.Config{Workers: 1, Telemetry: pipeline.NewTelemetry(nil)} }},
		{name: "pipeline.stream.tracer", procs: 1, cfg: func() pipeline.Config {
			return pipeline.Config{Workers: 1, Tracer: trace.New(trace.Config{TraceID: 1,
				SampleEvery: trace.DefaultSampleEvery, Flight: trace.NewFlight(trace.DefaultFlightEvents)})}
		}},
		{name: "pipeline.stream.wN", procs: n, cfg: func() pipeline.Config { return pipeline.Config{Workers: n} }},
		{name: "pipeline.sharded.sN", procs: n, sharded: true, cfg: func() pipeline.Config { return pipeline.Config{Workers: n} }},
	}
	allocs := map[string]float64{}
	defer runtime.GOMAXPROCS(1)
	// Repetitions are interleaved across cells so that slow drift in the
	// machine's speed lands on every cell alike and cancels in the ratios.
	for rep := 0; rep < ledgerReps; rep++ {
		for _, c := range cells {
			runtime.GOMAXPROCS(c.procs)
			f, err := os.Open(l.in.Capture)
			if err != nil {
				return err
			}
			cfg := c.cfg()
			var sink pipeline.Sink
			delivered := 0
			if c.counting {
				sink = func(pipeline.Item) error { delivered++; return nil }
			}
			var counts pipeline.Counts
			m0 := mallocs()
			parent := l.log.start("rep."+c.name, wl, sec)
			id := l.log.start(c.name, wl, parent)
			if c.sharded {
				var fi os.FileInfo
				var idx *capture.Index
				var seg *capture.SegmentedSource
				if fi, err = f.Stat(); err == nil {
					if idx, err = capture.FindIndex(f, fi.Size(), ""); err == nil {
						if seg, err = capture.NewSegmentedSource(f, fi.Size(), idx, n); err == nil {
							counts, err = pipeline.ShardedScan(ctx, seg, cfg, sink)
						}
					}
				}
			} else {
				counts, err = pipeline.Stream(ctx, bufio.NewReader(f), cfg, sink)
			}
			l.log.end(id, l.records)
			l.log.end(parent, l.records)
			allocs[c.name] = float64(mallocs()-m0) / float64(l.records)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if int(counts.Classified) != l.records || (c.counting && delivered != l.records) {
				l.fail("%s classified %d and delivered %d of %d records", c.name, counts.Classified, delivered, l.records)
			}
			l.ops += l.records
		}
	}
	w1 := l.stage("pipeline.stream.w1")
	l.m["pipeline.stream_ns_per_rec.w1"] = w1
	l.m["pipeline.stream_ns_per_rec.wN"] = l.stage("pipeline.stream.wN")
	l.m["pipeline.sharded_ns_per_rec.sN"] = l.stage("pipeline.sharded.sN")
	l.m["pipeline.allocs_per_rec.w1"] = allocs["pipeline.stream.w1"]
	l.m["pipeline.allocs_per_rec.wN"] = allocs["pipeline.stream.wN"]
	l.m["pipeline.ordered_sink_ns_per_rec"] = l.stage("pipeline.stream.ordered_sink") - w1
	l.m["pipeline.telemetry_ratio"] = w1 / l.stage("pipeline.stream.telemetry")
	l.m["pipeline.tracer_ratio"] = w1 / l.stage("pipeline.stream.tracer")
	l.m["pipeline.overhead_ns_per_rec"] = w1 - l.m["capture.scan_ns_per_rec"] - l.m["capture.decode_ns_per_rec"] -
		l.stage("core.classify")
	return nil
}

// fleetSection times the snapshot codec, the frame codec and the merger
// on every (pop, epoch) frame, in process.
func (l *ledger) fleetSection(root int) error {
	const wl = wlFleetMerge
	sec := l.log.start("section.fleet", wl, root)
	defer func() { l.log.end(sec, 0) }()
	id := l.log.start("fleet.deal", wl, sec)
	d, err := dealCapture(l.in.Capture)
	l.log.end(id, l.records)
	if err != nil {
		return err
	}
	merger, err := fleet.NewMerger(fleet.MergerConfig{Fresh: analysis.NewFleetAggs})
	if err != nil {
		return err
	}
	global := analysis.NewFleetAggs()
	var snapBytes, frameBytes int
	timed := func(name string, fn func() error) error {
		id := l.log.start(name, wl, sec)
		err := fn()
		l.log.end(id, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	for e := 0; e < fleetEpochs; e++ {
		for p := 0; p < fleetPoPs; p++ {
			agg := d.aggs[e][p]
			// Encoding a frame is timed where it really runs, in the PoP
			// driver's serial pass (fleetPass.EncodeNS): here, with no network
			// wait for the garbage collector to hide in, it would read higher
			// than its share of that pass.
			frame, err := fleet.EncodeSnapshot(popName(p), uint64(e), uint64(e), agg, d.counts[e][p])
			if err != nil {
				return err
			}
			var payload []byte
			var env *fleet.Envelope
			tmp := analysis.NewFleetAggs()
			steps := []struct {
				name string
				fn   func() error
			}{
				{"analysis.snapshot_encode", func() (err error) { payload, err = analysis.AppendSnapshot(nil, agg); return }},
				{"analysis.snapshot_restore", func() error { return analysis.RestoreSnapshot(payload, tmp) }},
				{"analysis.merge", func() error { return global.Merge(tmp) }},
				{"fleet.decode", func() (err error) { env, err = fleet.DecodeEnvelope(frame); return }},
				{"fleet.ingest", func() error { _, err := merger.Ingest(env); return err }},
			}
			for _, s := range steps {
				if err := timed(s.name, s.fn); err != nil {
					return err
				}
			}
			snapBytes += len(payload)
			frameBytes += len(frame)
		}
	}
	var rendered, body string
	for rep := 0; rep < 5*ledgerReps; rep++ {
		timed("analysis.render", func() error { rendered = analysis.RenderFleetReport(global); return nil })
		timed("fleet.report", func() error { body = merger.ReportBody(); return nil })
	}
	if rendered != d.want || body != d.want {
		l.fail("in-process merge of the %d frames renders differently from the single-process aggregate", fleetFrames)
	}
	l.ops += fleetFrames
	l.m["analysis.snapshot_encode_us"] = l.stage("analysis.snapshot_encode") / 1e3
	l.m["analysis.snapshot_restore_us"] = l.stage("analysis.snapshot_restore") / 1e3
	l.m["analysis.merge_us"] = l.stage("analysis.merge") / 1e3
	l.m["analysis.snapshot_bytes"] = float64(snapBytes) / fleetFrames
	l.m["analysis.render_ms"] = median(spanDurations(l.log.spans, "analysis.render")) / 1e6
	l.m["fleet.encode_us_per_frame"] = float64(l.in.Fleet1.EncodeNS) / 1e3 / fleetFrames
	l.m["fleet.decode_us_per_frame"] = l.stage("fleet.decode") / 1e3
	l.m["fleet.ingest_us_per_frame"] = l.stage("fleet.ingest") / 1e3
	ingest := spanDurations(l.log.spans, "fleet.ingest")
	sort.Float64s(ingest)
	l.m["fleet.ingest_us_per_frame.p99"] = percentile(ingest, supportedPercentile(len(ingest), 0.99)) / 1e3
	l.m["fleet.frame_bytes"] = float64(frameBytes) / fleetFrames
	l.m["fleet.report_ms"] = median(spanDurations(l.log.spans, "fleet.report")) / 1e6
	return nil
}

// e2e returns the median time per operation (ns) of the CLI passes the
// orchestrator timed for workload at the given -workers.
func (l *ledger) e2e(workload string, workers int) float64 {
	var v []float64
	for _, r := range l.in.Runs {
		if r.Workload == workload && r.Workers == workers && r.Ops > 0 {
			v = append(v, float64(r.EndNS-r.StartNS)/float64(r.Ops))
		}
	}
	if len(v) == 0 {
		l.fail("no %s pass at -workers %d was handed to the ledger", workload, workers)
	}
	return median(v)
}

// ledgerLine is one row of a workload's reconciliation table.
type ledgerLine struct {
	name      string
	ns        float64
	remainder bool // computed by subtraction, so it may not fall below remainderFloor
}

// derive computes the metrics that combine in-process stages with the
// orchestrator's CLI passes, and prints each workload's table: stage self
// times per operation plus explicit remainders, summing to the workload's
// -workers 1 end-to-end time per operation.
func (l *ledger) derive() {
	n := l.in.Workers
	m := l.m
	m["build_s"] = l.in.BuildS
	m["env.num_cpu"] = float64(runtime.NumCPU())
	m["env.gomaxprocs"] = float64(n)

	gen1, scan1, rep1 := l.e2e(wlGenCapture, 1), l.e2e(wlScanVerdicts, 1), l.e2e(wlScanReport, 1)
	m["workload.speedup"] = gen1 / l.e2e(wlGenCapture, n)
	m["pipeline.speedup.scan-verdicts"] = scan1 / l.e2e(wlScanVerdicts, n)
	m["pipeline.speedup.scan-report"] = rep1 / l.e2e(wlScanReport, n)
	m["pipeline.cli_overhead_ns_per_rec"] = scan1 - m["pipeline.stream_ns_per_rec.w1"]

	f1, fn := l.in.Fleet1, l.in.FleetN
	fleet1 := float64(f1.WallNS) / fleetFrames
	m["fleet.transport_us_per_frame"] = f1.PushMeanMS*1e3 - m["fleet.decode_us_per_frame"] - m["fleet.ingest_us_per_frame"]
	m["fleet.accepted_ratio"] = float64(fn.Accepted) / fleetFrames
	m["fleet.pusher_retries"] = float64(fn.Retries)
	m["fleet.push_ms_p50"] = l.in.FleetLat.Push.P50
	m["fleet.push_ms_p99"] = l.in.FleetLat.Push.Tail
	m["fleet.report_ms_p50"] = l.in.FleetLat.Report.P50
	for _, fp := range []fleetPass{f1, fn} {
		if fp.Problem != "" {
			l.fail("fleet-merge: %s", fp.Problem)
		}
	}

	read := []ledgerLine{
		{name: "capture.scan", ns: m["capture.scan_ns_per_rec"]},
		{name: "capture.decode", ns: m["capture.decode_ns_per_rec"]},
		{name: "capture.reconstruct", ns: m["capture.reconstruct_ns_per_rec"]},
		{name: "core.classify (self)", ns: m["core.classify_ns_per_rec"]},
		{name: "pipeline.overhead", ns: m["pipeline.overhead_ns_per_rec"], remainder: true},
	}
	tables := []struct {
		workload, unit string
		e2e            float64
		lines          []ledgerLine
	}{
		{wlGenCapture, "connection", gen1, []ledgerLine{
			{name: "workload.build", ns: m["workload.build_ms"] * 1e6 / genTotal},
			{name: "workload.specs", ns: m["workload.specs_us_per_conn"] * 1e3},
			{name: "workload.simulate", ns: m["workload.simulate_us_per_conn"] * 1e3},
			{name: "capture.encode", ns: m["capture.encode_ns_per_rec"]},
		}},
		{wlScanVerdicts, "record", scan1, append(append([]ledgerLine(nil), read...),
			ledgerLine{name: "pipeline.cli_overhead", ns: m["pipeline.cli_overhead_ns_per_rec"], remainder: true})},
		{wlScanReport, "record", rep1, append(append([]ledgerLine(nil), read...),
			ledgerLine{name: "analysis.record", ns: m["analysis.record_ns_per_rec"]},
			ledgerLine{name: "analysis.add (fleet set)", ns: m["analysis.add_ns_per_rec.fleet"]})},
		{wlFleetMerge, "frame", fleet1, []ledgerLine{
			{name: "fleet.encode (self)", ns: (m["fleet.encode_us_per_frame"] - m["analysis.snapshot_encode_us"]) * 1e3},
			{name: "analysis.snapshot_encode", ns: m["analysis.snapshot_encode_us"] * 1e3},
			{name: "fleet.decode", ns: m["fleet.decode_us_per_frame"] * 1e3},
			{name: "fleet.ingest (self)", ns: (m["fleet.ingest_us_per_frame"] - m["analysis.snapshot_restore_us"] - m["analysis.merge_us"]) * 1e3},
			{name: "analysis.snapshot_restore", ns: m["analysis.snapshot_restore_us"] * 1e3},
			{name: "analysis.merge", ns: m["analysis.merge_us"] * 1e3},
			{name: "fleet.transport", ns: m["fleet.transport_us_per_frame"] * 1e3, remainder: true},
			{name: fmt.Sprintf("fleet.report (%d GETs)", fleetReports), ns: float64(f1.WallNS-f1.PushNS) / fleetFrames},
		}},
	}
	for _, t := range tables {
		sum, unattributed := 0.0, 0.0
		for _, ln := range t.lines {
			sum += ln.ns
			if ln.remainder {
				unattributed += ln.ns
			}
		}
		// What no line claims is the table's last remainder; with it the
		// lines sum to the end-to-end time exactly.
		rest := t.e2e - sum
		lines := append(t.lines, ledgerLine{name: "unattributed", ns: rest, remainder: true})
		unattributed += rest
		m["ledger."+t.workload+".unattributed_share"] = unattributed / t.e2e

		fmt.Printf("\nledger: %s, ns per %s at -workers 1, single-threaded\n", t.workload, t.unit)
		for _, ln := range lines {
			mark := ""
			if ln.remainder {
				mark = "  (remainder)"
				if ln.ns/t.e2e < remainderFloor {
					l.fail("%s: remainder %s is %.1f%% of the end-to-end time, below %.0f%%: the stage timings contradict the whole",
						t.workload, ln.name, 100*ln.ns/t.e2e, 100*remainderFloor)
				}
			}
			fmt.Printf("  %-28s %12.1f  %6.1f%%%s\n", ln.name, ln.ns, 100*ln.ns/t.e2e, mark)
		}
		fmt.Printf("  %-28s %12.1f  %6.1f%%\n", "= end to end", t.e2e, 100.0)
	}
}
