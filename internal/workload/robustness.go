package workload

import (
	"fmt"

	"tamperdetect/internal/core"
	"tamperdetect/internal/faults"
)

// This file implements the robustness (false-positive) harness: run a
// tamper-free workload under benign link impairments and verify that no
// tampering signature fires. Under a benign scenario every connection's
// ground truth is NoTampering, so any Table 1 match is a false
// positive attributable to loss, reordering, duplication, corruption,
// or truncation — exactly the confusions §5.1 argues the signature
// design avoids.

// BenignScenario builds the default global scenario with every source
// of tampering and tampering-lookalike behaviour removed: no censors,
// no blocklists, and none of the §4.2 client quirks (scanners,
// Happy-Eyeballs aborts, RST-closers, abandoners) whose flag sequences
// legitimately resemble tampering. What remains is plain well-behaved
// request/response traffic, so ground truth is NoTampering for every
// connection.
func BenignScenario(name string, total, hours int, seed uint64) (*Scenario, error) {
	s, err := BuildScenario(name, total, hours, seed)
	if err != nil {
		return nil, err
	}
	s.SYNPayloadSurgeDay = -1
	for i := range s.Countries {
		c := &s.Countries[i]
		c.Styles = nil
		c.BlockCoverage = nil
		c.BlockedSeekBase = 0
		c.HourlySeek = nil
		c.HourlyStyles = nil
		c.ScannerShare = 0
		c.HEResetShare = 0
		c.HEDropShare = 0
		c.WeirdShare = 0
		c.AbandonShare = 0
		c.ResetCloseShare = 0
		c.StallShare = 0
		c.SYNPayloadShare = 0
	}
	return s, nil
}

// GradeOutcome is one impairment grade's raw classification outcome on
// a tamper-free workload: the verdict signature of every connection
// that survived capture. internal/analysis folds these into the
// false-positive matrix (RobustnessAgg/RenderRobustnessMatrix); the
// split keeps workload free of analysis imports.
type GradeOutcome struct {
	// Grade is the impairment profile name ("clean", "lossy", …).
	Grade string
	// EffectiveLoss is the grade's steady-state per-traversal loss.
	EffectiveLoss float64
	// Signatures holds one classifier verdict per captured connection.
	Signatures []core.Signature
}

// RobustnessSweep runs the benign scenario once per impairment grade
// and classifies every captured connection. The scenario's specs are
// expanded once and reused, so every grade classifies the same
// population; only the link pathology differs.
func RobustnessSweep(s *Scenario, grades []string, workers int) ([]GradeOutcome, error) {
	specs := s.Specs()
	cl := core.NewClassifier(core.DefaultConfig())
	out := make([]GradeOutcome, 0, len(grades))
	for _, name := range grades {
		imp, err := faults.Grade(name)
		if err != nil {
			return nil, err
		}
		run := *s
		run.Impairments = imp
		conns := run.RunSpecs(specs, workers)
		g := GradeOutcome{Grade: name, EffectiveLoss: imp.EffectiveLoss()}
		for _, c := range conns {
			if c == nil {
				continue
			}
			g.Signatures = append(g.Signatures, cl.Classify(c).Signature)
		}
		if len(g.Signatures) == 0 {
			return nil, fmt.Errorf("workload: grade %q produced no classified connections", name)
		}
		out = append(out, g)
	}
	return out, nil
}
