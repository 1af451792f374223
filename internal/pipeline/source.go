package pipeline

import (
	"io"

	"tamperdetect/internal/capture"
)

// Source yields connection records one at a time. Next returns io.EOF
// at a clean end of stream; any other error aborts the pipeline. Next
// is called from a single goroutine, so implementations need not
// support concurrent Next calls. One overlap is part of the contract,
// though: when the run's context is cancelled, Run returns without
// waiting for a source goroutine that may be blocked inside
// Next (an uninterruptible read), and the caller will typically tear
// the source down right away — so whatever teardown unblocks Next
// (os.File.Close, workload.StreamRun.Close) must be safe to call
// concurrently with an in-flight Next.
type Source interface {
	Next() (*capture.Connection, error)
}

// ReaderSource decodes TDCAP records incrementally from an io.Reader,
// one record per Next call, never materialising the whole capture.
type ReaderSource struct {
	r *capture.Reader
}

// NewReaderSource wraps r (typically a file or network stream).
func NewReaderSource(r io.Reader) *ReaderSource {
	return &ReaderSource{r: capture.NewReader(r)}
}

// Next returns the next decoded record.
func (s *ReaderSource) Next() (*capture.Connection, error) { return s.r.Next() }

// Decoded reports how many records have been decoded so far.
func (s *ReaderSource) Decoded() int { return s.r.Count() }

// BytesRead reports the raw bytes consumed from the underlying
// stream, feeding the capture throughput counter when the pipeline
// runs with Telemetry.
func (s *ReaderSource) BytesRead() int64 { return s.r.BytesRead() }

// SliceSource yields records from an in-memory slice, skipping nil
// entries (positional simulation output uses nil for unsampled specs).
type SliceSource struct {
	conns []*capture.Connection
	i     int
}

// NewSliceSource wraps conns without copying.
func NewSliceSource(conns []*capture.Connection) *SliceSource {
	return &SliceSource{conns: conns}
}

// Next returns the next non-nil record, or io.EOF past the end.
func (s *SliceSource) Next() (*capture.Connection, error) {
	for s.i < len(s.conns) {
		c := s.conns[s.i]
		s.i++
		if c != nil {
			return c, nil
		}
	}
	return nil, io.EOF
}

// ChanSource yields records from a channel; a closed channel is EOF.
// It adapts live producers (a sampler drain loop, a pcap ingester)
// to the pipeline.
type ChanSource <-chan *capture.Connection

// Next receives the next record, skipping nils.
func (s ChanSource) Next() (*capture.Connection, error) {
	for {
		c, ok := <-s
		if !ok {
			return nil, io.EOF
		}
		if c != nil {
			return c, nil
		}
	}
}
