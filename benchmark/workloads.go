package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Input sizes. One gen-capture pass simulates genTotal connections; the
// scan and fleet workloads read a capture of scanTotal connections. They
// are sized so that three set-ups take under ten seconds and most of a
// run's time budget goes to measured passes: this machine's speed wanders
// by ±10 % over tens of seconds, and only a longer measured window
// steadies a run's medians.
const (
	genTotal  = 50000
	scanTotal = 100000
)

// bench is what every workload needs from the orchestrator.
type bench struct {
	bin     string // directory holding the built CLIs
	dir     string // scratch directory of this run
	seed    uint64
	workers int // nproc: passed to every CLI as -workers and used as the client count
}

func (b *bench) cli(name string) string { return filepath.Join(b.bin, name) }

func (b *bench) seedArg() string { return strconv.FormatUint(b.seed, 10) }

// trafficgen writes a capture of total connections to out.
func (b *bench) trafficgen(ctx context.Context, env []string, total, workers int, out string) (procResult, error) {
	return runProc(ctx, env, b.cli("trafficgen"), "-total", strconv.Itoa(total), "-seed", b.seedArg(),
		"-workers", strconv.Itoa(workers), "-o", out)
}

// singleEnv is the extra environment of a single pass's processes.
func singleEnv(single bool) []string {
	if single {
		return []string{"GOMAXPROCS=1"}
	}
	return nil
}

// passResult is one measured pass.
type passResult struct {
	Ops      int
	Failed   int // ops of a pass whose output check failed
	Start    time.Time
	Wall     time.Duration
	CPU      time.Duration
	RSSKB    int64
	OutBytes int64
	Problem  string // why the output check failed
}

// runner is one benchmark workload: setup builds inputs and reference
// outputs under b.dir (and may be called again, replacing them), pass
// runs the system under test once with the given parallelism and checks
// its output, close releases what setup started.
type runner interface {
	setup(ctx context.Context, b *bench) error
	pass(ctx context.Context, b *bench, workers int, single bool) (passResult, error)
	close() error
}

func newWorkload(name string) runner {
	switch name {
	case wlGenCapture:
		return &genCapture{}
	case wlScanVerdicts:
		return &scan{tool: "tamperscan"}
	case wlScanReport:
		return &scan{tool: "paperbench"}
	case wlFleetMerge:
		return &fleetMerge{}
	}
	return nil
}

func fileSHA256(path string) (sum [sha256.Size]byte, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sum, 0, err
	}
	defer f.Close()
	h := sha256.New()
	size, err = io.Copy(h, f)
	copy(sum[:], h.Sum(nil))
	return sum, size, err
}

func captureRecords(path string) (int, error) {
	f, idx, err := openCapture(path)
	if err != nil {
		return 0, err
	}
	f.Close()
	return idx.Records, nil
}

// genCapture is the write path: trafficgen simulating genTotal
// connections into an indexed capture. The reference is the same run at
// -workers 1; every pass must reproduce it byte for byte.
type genCapture struct {
	want    [sha256.Size]byte
	records int
}

func (g *genCapture) setup(ctx context.Context, b *bench) error {
	ref := filepath.Join(b.dir, "ref.tdcap")
	defer os.Remove(ref)
	if _, err := b.trafficgen(ctx, nil, genTotal, 1, ref); err != nil {
		return err
	}
	var err error
	if g.want, _, err = fileSHA256(ref); err != nil {
		return err
	}
	g.records, err = captureRecords(ref)
	return err
}

func (g *genCapture) pass(ctx context.Context, b *bench, workers int, single bool) (passResult, error) {
	out := filepath.Join(b.dir, "pass.tdcap")
	defer os.Remove(out)
	pr, err := b.trafficgen(ctx, singleEnv(single), genTotal, workers, out)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{Ops: g.records, Start: pr.Start, Wall: pr.Wall, CPU: pr.CPU, RSSKB: pr.RSSKB}
	got, size, err := fileSHA256(out)
	if err != nil {
		return res, err
	}
	res.OutBytes = size
	if got != g.want {
		res.Failed, res.Problem = res.Ops, "capture differs from the -workers 1 reference"
	}
	return res, nil
}

func (g *genCapture) close() error { return nil }

// makeCapture generates the scanTotal-connection capture the read-side
// workloads share a recipe for.
func makeCapture(ctx context.Context, b *bench) (path string, records int, err error) {
	path = filepath.Join(b.dir, "input.tdcap")
	if _, err = b.trafficgen(ctx, nil, scanTotal, b.workers, path); err != nil {
		return "", 0, err
	}
	records, err = captureRecords(path)
	return path, records, err
}

// scan is the read path over the set-up capture: tamperscan (a trivial
// tally) or paperbench -capture table1 (the full paper aggregator set and
// a render). The reference is the same command at -workers 1 -shards 1.
type scan struct {
	tool    string
	capture string
	records int
	want    []byte
}

func (s *scan) args(workers int, single bool) []string {
	args := []string{"-workers", strconv.Itoa(workers)}
	if single {
		args = append(args, "-shards", "1")
	}
	if s.tool == "paperbench" {
		return append(args, "-capture", s.capture, "table1")
	}
	return append(args, s.capture)
}

// comparable reduces the tool's stdout to the part that must not change.
func (s *scan) comparable(out []byte) []byte {
	if s.tool == "paperbench" {
		return stripDatasetLine(out)
	}
	return out
}

func (s *scan) setup(ctx context.Context, b *bench) error {
	var err error
	if s.capture, s.records, err = makeCapture(ctx, b); err != nil {
		return err
	}
	pr, err := runProc(ctx, nil, b.cli(s.tool), s.args(1, true)...)
	if err != nil {
		return err
	}
	s.want = s.comparable(pr.Stdout)
	if len(s.want) == 0 {
		return fmt.Errorf("%s printed nothing for the reference run", s.tool)
	}
	return nil
}

func (s *scan) pass(ctx context.Context, b *bench, workers int, single bool) (passResult, error) {
	pr, err := runProc(ctx, singleEnv(single), b.cli(s.tool), s.args(workers, single)...)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{Ops: s.records, Start: pr.Start, Wall: pr.Wall, CPU: pr.CPU, RSSKB: pr.RSSKB,
		OutBytes: int64(len(pr.Stdout))}
	if !bytes.Equal(s.comparable(pr.Stdout), s.want) {
		res.Failed, res.Problem = res.Ops, "stdout differs from the -workers 1 -shards 1 reference"
	}
	return res, nil
}

func (s *scan) close() error { return nil }

// fleetMerge is the second user path: per-PoP snapshots pushed to a fresh
// popmerge and the merged report read back. The PoP driver is a child of
// this binary (see fleetDriverRole); popmerge is the system under test.
type fleetMerge struct {
	driver *child
	last   fleetPass  // the latest pass, as the driver reported it
	stats  fleetStats // latencies pooled over every pass since set-up
}

func (f *fleetMerge) setup(ctx context.Context, b *bench) error {
	path, records, err := makeCapture(ctx, b)
	if err != nil {
		return err
	}
	return f.start(ctx, path, records)
}

// start replaces the PoP driver with one that has dealt the capture at
// path, which holds the given number of records.
func (f *fleetMerge) start(ctx context.Context, path string, records int) error {
	if err := f.close(); err != nil {
		return err
	}
	var err error
	if f.driver, err = startChild(ctx, "fleet-driver", "-capture", path); err != nil {
		return err
	}
	var ready fleetReady
	if err := f.driver.call(nil, &ready); err != nil {
		return fmt.Errorf("fleet driver set-up: %w", err)
	}
	if ready.Frames != fleetFrames || ready.Records != records {
		return fmt.Errorf("fleet driver dealt %d records into %d frames, want %d into %d",
			ready.Records, ready.Frames, records, fleetFrames)
	}
	return nil
}

func (f *fleetMerge) pass(ctx context.Context, b *bench, workers int, single bool) (passResult, error) {
	pm, err := startPopmerge(ctx, b.cli("popmerge"), singleEnv(single))
	if err != nil {
		return passResult{}, err
	}
	var fp fleetPass
	if err := f.driver.call(fleetRequest{Cmd: "pass", URL: "http://" + pm.Addr, Clients: workers, Serial: single}, &fp); err != nil {
		pm.kill()
		return passResult{}, fmt.Errorf("fleet pass: %w", err)
	}
	cpu, hwm, err := pm.stop()
	if err != nil {
		return passResult{}, err
	}
	if err := f.driver.call(fleetRequest{Cmd: "stats"}, &f.stats); err != nil {
		return passResult{}, err
	}
	res := passResult{Ops: fleetFrames, Start: time.Unix(0, fp.StartUnixNS), Wall: time.Duration(fp.WallNS),
		CPU: cpu + time.Duration(fp.CPUNS), RSSKB: hwm, OutBytes: fp.FrameBytes}
	if fp.Problem != "" {
		res.Failed, res.Problem = res.Ops, fp.Problem
	}
	f.last = fp
	return res, nil
}

func (f *fleetMerge) close() error {
	if f.driver == nil {
		return nil
	}
	err := f.driver.close()
	f.driver = nil
	return err
}
