package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/capture"
	"tamperdetect/internal/core"
	"tamperdetect/internal/fleet"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/pipeline"
)

// The fleet's shape: the paper's PoP count (§3) and eight collection
// epochs, each an eighth of the capture file.
const (
	fleetPoPs    = 285
	fleetEpochs  = 8
	fleetFrames  = fleetPoPs * fleetEpochs
	fleetReports = 20 // GET /report requests per pass, all frames merged
)

// fleetData is what set-up derives from the capture: one aggregator set
// per (pop, epoch), and the single-process report over the same records
// that the merged report must reproduce byte for byte.
type fleetData struct {
	aggs    [fleetEpochs][fleetPoPs]analysis.Multi
	counts  [fleetEpochs][fleetPoPs]pipeline.Counts
	global  analysis.Multi
	want    string
	records int
}

// openCapture opens an indexed capture and reports its record count.
func openCapture(path string) (*os.File, *capture.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	idx, err := capture.FindIndex(f, fi.Size(), "")
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, idx, nil
}

// dealCapture classifies the capture and deals its records round-robin
// to the PoPs, epoch by position in the file.
func dealCapture(path string) (*fleetData, error) {
	f, idx, err := openCapture(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := &fleetData{global: analysis.NewFleetAggs(), records: idx.Records}
	for e := range d.aggs {
		for p := range d.aggs[e] {
			d.aggs[e][p] = analysis.NewFleetAggs()
		}
	}
	cl := core.NewClassifier(core.DefaultConfig())
	var scratch core.Scratch
	var conn capture.Connection
	resolver := geo.NewCache(nil) // capture paths run without an address plan
	sc := capture.NewScanner(bufio.NewReaderSize(f, 1<<20))
	var raw []byte
	for i := 0; ; i++ {
		raw, err = sc.Next(raw[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, i, err)
		}
		if i >= idx.Records {
			return nil, fmt.Errorf("%s: more records than its index promises (%d)", path, idx.Records)
		}
		if err := capture.DecodeRecord(raw, &conn); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, i, err)
		}
		res := cl.ClassifyWith(&conn, &scratch)
		rec := analysis.NewRecord(&conn, resolver, res)
		e, p := i*fleetEpochs/idx.Records, i%fleetPoPs
		d.aggs[e][p].Add(&rec)
		d.global.Add(&rec)
		c := &d.counts[e][p]
		c.Decoded++
		c.Classified++
		c.Delivered++
		if res.Signature.IsTampering() {
			c.Tampering++
		}
	}
	if sc.Count() != idx.Records {
		return nil, fmt.Errorf("%s: %d records, index promises %d", path, sc.Count(), idx.Records)
	}
	d.want = analysis.RenderFleetReport(d.global)
	return d, nil
}

func popName(p int) string { return fmt.Sprintf("pop%03d", p) }

// timingTransport records how long each RoundTrip took. When done is
// non-nil it also signals every completed round trip, which is how a
// serial pass waits for one frame's acknowledgement before encoding the
// next.
type timingTransport struct {
	base http.RoundTripper
	done chan struct{}
	mu   sync.Mutex
	ms   []float64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	t.mu.Lock()
	t.ms = append(t.ms, float64(d)/1e6)
	t.mu.Unlock()
	if t.done != nil {
		t.done <- struct{}{}
	}
	return resp, err
}

// fleetPass is the PoP driver's account of one pass.
type fleetPass struct {
	StartUnixNS int64   `json:"start_unix_ns"`
	WallNS      int64   `json:"wall_ns"`   // first encode to last report
	PushNS      int64   `json:"push_ns"`   // first encode to last epoch flushed
	EncodeNS    int64   `json:"encode_ns"` // inside fleet.EncodeSnapshot, summed over clients
	CPUNS       int64   `json:"cpu_ns"`    // this process, over the timed section
	FrameBytes  int64   `json:"frame_bytes"`
	Delivered   int64   `json:"delivered"`
	Failed      int64   `json:"failed"`
	Retries     int64   `json:"retries"`
	Accepted    int64   `json:"accepted"`
	Rejected    int64   `json:"rejected"`
	PushMeanMS  float64 `json:"push_mean_ms"`
	Problem     string  `json:"problem,omitempty"` // first failed check
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runFleetPass plays the fleet against the merge service at base: in each
// epoch, `clients` concurrent clients share the PoPs round-robin, and each
// encodes its PoPs' frames and pushes them through its own fleet.Pusher,
// flushing at the end of the epoch; then the merged report is read
// fleetReports times. Push and report latencies are appended to pushMS
// and reportMS.
//
// A serial pass is the ledger's single-threaded variant: GOMAXPROCS 1, and
// the (one) client waits for each frame's acknowledgement before encoding
// the next, so that nothing overlaps and stage times add up to the whole.
func runFleetPass(ctx context.Context, d *fleetData, base string, clients int, serial bool, pushMS, reportMS *[]float64) (fleetPass, error) {
	tt := &timingTransport{base: &http.Transport{MaxIdleConnsPerHost: clients + 1}}
	defer tt.base.(*http.Transport).CloseIdleConnections()
	if serial {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		clients, tt.done = 1, make(chan struct{}, 1)
	}
	client := &http.Client{Transport: tt}
	ps := make([]*fleet.Pusher, clients)
	for i := range ps {
		p, err := fleet.NewPusher(fleet.PusherConfig{URL: base, Client: client, QueueLen: fleetPoPs + 1})
		if err != nil {
			return fleetPass{}, err
		}
		defer p.Close()
		ps[i] = p
	}
	var res fleetPass
	note := func(format string, a ...any) {
		if res.Problem == "" {
			res.Problem = fmt.Sprintf(format, a...)
		}
	}

	var encNS atomic.Int64 // time inside EncodeSnapshot, summed over clients
	// epoch runs client c's share of epoch e and returns the bytes it put
	// on the wire.
	epoch := func(e, c int) (int64, error) {
		var sent int64
		for p := c; p < fleetPoPs; p += clients {
			t0 := time.Now()
			frame, err := fleet.EncodeSnapshot(popName(p), uint64(e), uint64(e), d.aggs[e][p], d.counts[e][p])
			encNS.Add(int64(time.Since(t0)))
			if err != nil {
				return sent, err
			}
			sent += int64(len(frame))
			if err := ps[c].Push(frame); err != nil {
				return sent, fmt.Errorf("push %s/%d: %w", popName(p), e, err)
			}
			if serial {
				<-tt.done
			}
		}
		fctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		if err := ps[c].Flush(fctx); err != nil {
			return sent, fmt.Errorf("flush epoch %d: %w", e, err)
		}
		return sent, nil
	}

	start, cpu0 := time.Now(), selfCPU()
	res.StartUnixNS = start.UnixNano()
	for e := 0; e < fleetEpochs; e++ {
		sent, errs := make([]int64, clients), make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sent[c], errs[c] = epoch(e, c)
			}(c)
		}
		wg.Wait()
		for c := range errs {
			if errs[c] != nil {
				return res, errs[c]
			}
			res.FrameBytes += sent[c]
		}
	}
	res.PushNS, res.EncodeNS = int64(time.Since(start)), encNS.Load()
	tt.mu.Lock()
	pushes := append([]float64(nil), tt.ms...)
	tt.mu.Unlock()

	// Reports go through a plain client so their samples stay apart from
	// the pushes'.
	plain := &http.Client{Transport: tt.base}
	for i := 0; i < fleetReports; i++ {
		t0 := time.Now()
		body, err := httpGet(ctx, plain, base+"/report")
		*reportMS = append(*reportMS, float64(time.Since(t0))/1e6)
		if err != nil {
			return res, err
		}
		if string(body) != d.want {
			note("/report differs from the single-process report")
		}
	}
	res.WallNS = int64(time.Since(start))
	res.CPUNS = int64(selfCPU() - cpu0)

	*pushMS = append(*pushMS, pushes...)
	for _, v := range pushes {
		res.PushMeanMS += v / float64(len(pushes))
	}
	for _, p := range ps {
		st := p.Stats()
		res.Delivered += st.Delivered
		res.Failed += st.Failed + st.Spilled
		res.Retries += st.Retries
	}
	body, err := httpGet(ctx, plain, base+"/v1/status")
	if err != nil {
		return res, err
	}
	var status struct {
		Stats struct{ Accepted, Rejected int64 } `json:"stats"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		return res, fmt.Errorf("/v1/status: %w", err)
	}
	res.Accepted, res.Rejected = status.Stats.Accepted, status.Stats.Rejected
	switch {
	case res.Accepted != fleetFrames || res.Rejected != 0:
		note("merger accepted %d and rejected %d of %d frames", res.Accepted, res.Rejected, fleetFrames)
	case res.Delivered != fleetFrames || res.Failed != 0 || res.Retries != 0:
		note("pushers delivered %d, failed %d, retried %d of %d frames", res.Delivered, res.Failed, res.Retries, fleetFrames)
	case len(pushes) != fleetFrames:
		note("%d push round trips for %d frames", len(pushes), fleetFrames)
	}
	return res, nil
}

func httpGet(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// Requests the orchestrator sends the PoP driver, one JSON line each.
type fleetRequest struct {
	Cmd     string `json:"cmd"` // "pass" or "stats"
	URL     string `json:"url,omitempty"`
	Clients int    `json:"clients,omitempty"`
	Serial  bool   `json:"serial,omitempty"`
}

// fleetReady is the driver's first line, sent once set-up is done.
type fleetReady struct {
	Frames  int `json:"frames"`
	Records int `json:"records"`
}

// fleetStats pools the latency samples of every pass so far.
type fleetStats struct {
	Push   latencySummary `json:"push"`
	Report latencySummary `json:"report"`
}

// fleetDriverRole is the PoP-driver child: it builds the per-(pop, epoch)
// aggregates from the capture (set-up, untimed), then serves pass and
// stats requests until stdin closes. It runs apart from the orchestrator
// so that the ~100 MB of aggregates do not raise the RSS floor of the
// processes the orchestrator measures.
func fleetDriverRole(ctx context.Context, capturePath string) error {
	d, err := dealCapture(capturePath)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(fleetReady{Frames: fleetFrames, Records: d.records}); err != nil {
		return err
	}
	var pushMS, reportMS []float64
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var req fleetRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			return fmt.Errorf("request %q: %w", in.Bytes(), err)
		}
		var reply any
		switch req.Cmd {
		case "pass":
			res, err := runFleetPass(ctx, d, req.URL, req.Clients, req.Serial, &pushMS, &reportMS)
			if err != nil {
				reply = map[string]string{"error": err.Error()}
			} else {
				reply = res
			}
		case "stats":
			reply = fleetStats{Push: summarize(pushMS), Report: summarize(reportMS)}
		default:
			return fmt.Errorf("unknown request %q", req.Cmd)
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}
