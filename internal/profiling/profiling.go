// Package profiling wires the standard -cpuprofile/-memprofile flags
// (plus -blockprofile/-mutexprofile for contention hunting) into the
// repo's commands: pprof-compatible profiles for hunting allocation,
// CPU, and lock-contention regressions in the hot paths (see
// benchmark/README.md for the per-layer ledger the profiles explain).
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config names the profile outputs; empty paths are skipped. Block
// and mutex profiling carry a runtime cost while armed, so they are
// activated only when their paths are set and disarmed again at stop.
type Config struct {
	CPUProfile   string // pprof CPU profile
	MemProfile   string // "allocs" profile with final live-heap state
	BlockProfile string // goroutine blocking (channel/select/lock waits)
	MutexProfile string // mutex contention
}

// Start begins the configured profiles and returns a stop function
// that must be called once, before process exit, to flush them all;
// it is safe to call with a zero Config (no-op).
func Start(cfg Config) (stop func() error, err error) {
	var cpuFile *os.File
	if cfg.CPUProfile != "" {
		cpuFile, err = os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if cfg.BlockProfile != "" {
		// Rate 1 records every blocking event; fine for offline runs,
		// too heavy to leave on in production.
		runtime.SetBlockProfileRate(1)
	}
	if cfg.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if cfg.MemProfile != "" {
			runtime.GC() // materialise final live-heap state
			if err := writeProfile("allocs", cfg.MemProfile); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		if cfg.BlockProfile != "" {
			err := writeProfile("block", cfg.BlockProfile)
			runtime.SetBlockProfileRate(0)
			if err != nil {
				return fmt.Errorf("blockprofile: %w", err)
			}
		}
		if cfg.MutexProfile != "" {
			err := writeProfile("mutex", cfg.MutexProfile)
			runtime.SetMutexProfileFraction(0)
			if err != nil {
				return fmt.Errorf("mutexprofile: %w", err)
			}
		}
		return nil
	}, nil
}

func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.Lookup(name).WriteTo(f, 0)
}
