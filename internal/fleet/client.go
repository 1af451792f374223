package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Push when the bounded retry queue is
// full and no spill directory is configured.
var ErrQueueFull = errors.New("fleet: push queue full")

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("fleet: pusher closed")

// PusherConfig configures a Pusher.
type PusherConfig struct {
	// URL is the merge service base URL (the client posts to
	// URL + "/v1/push").
	URL string
	// Client is the HTTP client; the chaos tests inject a faulty
	// transport here. Default: a dedicated http.Client.
	Client *http.Client
	// Timeout bounds each individual attempt via a context deadline
	// (default 10s).
	Timeout time.Duration
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// between attempts (defaults 250ms and 30s). Each sleep gets up to
	// 50% seeded jitter so a fleet of PoPs never retries in lockstep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds attempts per frame before it spills (or is
	// counted failed); default 8. A rejected frame gets one attempt.
	MaxAttempts int
	// QueueLen bounds the in-memory retry queue (default 64).
	QueueLen int
	// SpillDir, when set, receives frames the queue cannot hold or
	// that exhausted their attempts; Resume re-enqueues them. Rejected
	// frames are kept there as *.rejected, which Resume skips.
	SpillDir string
	// Seed seeds the jitter RNG (0 means unjittered determinism is
	// fine — tests).
	Seed int64
}

// PusherStats counts the client's delivery outcomes.
type PusherStats struct {
	// Delivered frames acknowledged by the merger (any verdict).
	Delivered int64
	// Retries counts failed attempts that were retried.
	Retries int64
	// Spilled frames written to the spill directory.
	Spilled int64
	// Resumed frames re-enqueued from the spill directory.
	Resumed int64
	// Failed frames lost: attempts exhausted and no spill directory,
	// or a spill or set-aside write that failed.
	Failed int64
	// Rejected frames the merger refused outright with a 4xx status
	// other than 408 (request timeout) and 429 (too many requests):
	// sent once, never retried. With a spill directory the frame is
	// set aside there as *.rejected (a resumed frame by renaming its
	// *.snap file); a set-aside that fails also counts in Failed.
	Rejected int64
}

// errRejected marks a merger's permanent refusal of a frame (see
// PusherStats.Rejected): sending the same bytes again cannot succeed.
var errRejected = errors.New("fleet: frame rejected by merger")

type queued struct {
	frame []byte
	// spillPath is the on-disk source of a resumed frame; deleted
	// only after the merger acknowledges it.
	spillPath string
}

// Pusher delivers snapshot frames to a merge service with bounded
// retries, capped jittered backoff, and spill-to-disk, so a merger
// outage never loses a frame (and never blocks the pipeline feeding
// Push). One background goroutine drains the queue in order.
type Pusher struct {
	cfg PusherConfig

	ch chan queued
	// pending counts enqueued frames not yet settled (delivered,
	// spilled, or failed); Flush waits for it to hit zero.
	pending atomic.Int64
	closed  atomic.Bool
	wg      sync.WaitGroup

	mu  sync.Mutex // rng + spill file naming
	rng *rand.Rand
	seq int64

	delivered atomic.Int64
	retries   atomic.Int64
	spilled   atomic.Int64
	resumed   atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64
}

// NewPusher starts a pusher; callers own Close.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	if cfg.URL == "" {
		return nil, errors.New("fleet: PusherConfig.URL is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 250 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	p := &Pusher{
		cfg: cfg,
		ch:  make(chan queued, cfg.QueueLen),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	p.wg.Add(1)
	go p.loop()
	return p, nil
}

// Push enqueues one frame for delivery. It never blocks: a full queue
// spills to disk when SpillDir is set and returns ErrQueueFull
// otherwise.
func (p *Pusher) Push(frame []byte) error {
	if p.closed.Load() {
		return ErrClosed
	}
	p.pending.Add(1)
	select {
	case p.ch <- queued{frame: frame}:
		return nil
	default:
		p.pending.Add(-1)
	}
	if p.cfg.SpillDir != "" {
		return p.spill(queued{frame: frame})
	}
	return ErrQueueFull
}

// Resume re-enqueues every frame a previous run spilled to SpillDir,
// oldest first. Spill files are deleted only after the merger
// acknowledges them, so crashing mid-resume loses nothing — the dedup
// on the merge side makes re-resuming the same files harmless. A
// spilled frame the merger rejects is renamed from *.snap to
// *.rejected, so later runs do not send it again.
func (p *Pusher) Resume() (int, error) {
	if p.cfg.SpillDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(p.cfg.SpillDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("fleet: resume: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".snap" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		path := filepath.Join(p.cfg.SpillDir, name)
		frame, err := os.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("fleet: resume %s: %w", name, err)
		}
		p.pending.Add(1)
		select {
		case p.ch <- queued{frame: frame, spillPath: path}:
			p.resumed.Add(1)
			n++
		default:
			// Queue full: the remaining files simply stay spilled for
			// the next Resume.
			p.pending.Add(-1)
			return n, nil
		}
	}
	return n, nil
}

// Flush blocks until the queue is empty and no delivery is in flight,
// or ctx ends. Frames that spilled or failed count as settled.
func (p *Pusher) Flush(ctx context.Context) error {
	for {
		if p.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Close stops accepting frames, drains the queue, and waits for the
// worker to exit.
func (p *Pusher) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.ch)
	p.wg.Wait()
	return nil
}

// Stats returns the delivery counters.
func (p *Pusher) Stats() PusherStats {
	return PusherStats{
		Delivered: p.delivered.Load(),
		Retries:   p.retries.Load(),
		Spilled:   p.spilled.Load(),
		Resumed:   p.resumed.Load(),
		Failed:    p.failed.Load(),
		Rejected:  p.rejected.Load(),
	}
}

func (p *Pusher) loop() {
	defer p.wg.Done()
	for q := range p.ch {
		p.deliver(q)
		p.pending.Add(-1)
	}
}

// deliver attempts one frame to exhaustion, then spills or fails it.
// A rejected frame stops at its first attempt.
func (p *Pusher) deliver(q queued) {
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			time.Sleep(p.backoff(attempt))
		}
		err := p.attempt(q.frame)
		if err == nil {
			p.delivered.Add(1)
			if q.spillPath != "" {
				os.Remove(q.spillPath)
			}
			return
		}
		if errors.Is(err, errRejected) {
			p.rejected.Add(1)
			if p.setAside(q) != nil {
				p.failed.Add(1)
			}
			return
		}
	}
	if q.spillPath != "" {
		// Already on disk; leave it for the next Resume.
		p.spilled.Add(1)
		return
	}
	if p.cfg.SpillDir != "" {
		if p.spill(q) == nil {
			return
		}
	}
	p.failed.Add(1)
}

// attempt posts the frame once under the per-attempt deadline. Any
// 2xx is success — the merger acknowledges duplicates and late frames
// with 200 precisely so the client stops retrying them. A permanent
// 4xx wraps errRejected.
func (p *Pusher) attempt(frame []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.cfg.URL+"/v1/push", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	code := resp.StatusCode
	switch {
	case code >= 200 && code <= 299:
		return nil
	case code >= 400 && code <= 499 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests:
		return fmt.Errorf("%w: status %d", errRejected, code)
	}
	return fmt.Errorf("fleet: push status %d", code)
}

// backoff returns the capped exponential delay for the given attempt
// number (1-based for the first retry), plus up to 50% seeded jitter.
func (p *Pusher) backoff(attempt int) time.Duration {
	d := p.cfg.BaseBackoff << (attempt - 1)
	if d > p.cfg.MaxBackoff || d <= 0 {
		d = p.cfg.MaxBackoff
	}
	p.mu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.mu.Unlock()
	return d + jitter
}

// spill writes one frame to the spill directory for a later Resume.
func (p *Pusher) spill(q queued) error {
	if err := p.writeSpill(q.frame, ".snap"); err != nil {
		p.failed.Add(1)
		return err
	}
	p.spilled.Add(1)
	return nil
}

// setAside keeps a rejected frame in the spill directory as
// *.rejected, where Resume does not pick it up again: a resumed frame
// by renaming its file, a fresh one by writing it. Without a spill
// directory there is nowhere to keep it.
func (p *Pusher) setAside(q queued) error {
	switch {
	case q.spillPath != "":
		return os.Rename(q.spillPath, strings.TrimSuffix(q.spillPath, ".snap")+".rejected")
	case p.cfg.SpillDir != "":
		return p.writeSpill(q.frame, ".rejected")
	}
	return nil
}

// writeSpill writes frame to the spill directory under a
// lexically-ordered unique name ending in suffix.
func (p *Pusher) writeSpill(frame []byte, suffix string) error {
	if err := os.MkdirAll(p.cfg.SpillDir, 0o755); err != nil {
		return fmt.Errorf("fleet: spill: %w", err)
	}
	p.mu.Lock()
	p.seq++
	name := fmt.Sprintf("%020d-%06d%s", time.Now().UnixNano(), p.seq, suffix)
	p.mu.Unlock()
	path := filepath.Join(p.cfg.SpillDir, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return fmt.Errorf("fleet: spill: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("fleet: spill: %w", err)
	}
	return nil
}
