// Iran2022 reproduces the paper's §5.6 case study at example scale: a
// 17-day scenario around the September 2022 protests, showing how
// passive signature match rates track a censorship escalation — the
// shift toward ⟨SYN → RST⟩ / ⟨SYN;ACK → ∅⟩ / ⟨SYN;ACK → RST+ACK⟩, and
// the concentration on the dominant (mobile) ISPs.
//
// Run with: go run ./examples/iran2022 [-total 20000]
package main

import (
	"flag"
	"fmt"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/core"
	"tamperdetect/internal/workload"
)

func main() {
	total := flag.Int("total", 20000, "connections to simulate across the 17 days")
	flag.Parse()

	scen, err := workload.Iran2022Scenario(*total, 2022)
	if err != nil {
		fmt.Println("building scenario:", err)
		return
	}
	conns := scen.Run(0)
	cl := core.NewClassifier(core.DefaultConfig())
	recs := make([]analysis.Record, len(conns))
	asn := analysis.NewASNViewAgg()
	for i, c := range conns {
		recs[i] = analysis.NewRecord(c, scen.Geo, cl.Classify(c))
		asn.Add(&recs[i])
	}
	fmt.Printf("simulated %d connections from Iran over 17 days\n\n", len(recs))

	// Daily match rates for the protest-era signatures.
	sigs := []core.Signature{core.SigSYNRST, core.SigSYNTimeout, core.SigACKTimeout, core.SigACKRSTACK}
	fmt.Printf("%-6s", "day")
	for _, s := range sigs {
		fmt.Printf(" %18.18s", s.String())
	}
	fmt.Printf(" %10s\n", "any match")
	for day := 0; day < 17; day++ {
		var total int
		counts := make([]int, len(sigs))
		matched := 0
		for i := range recs {
			if recs[i].Hour/24 != day {
				continue
			}
			total++
			if recs[i].Res.Signature.IsTampering() {
				matched++
			}
			for j, s := range sigs {
				if recs[i].Res.Signature == s {
					counts[j]++
				}
			}
		}
		if total == 0 {
			continue
		}
		fmt.Printf("%-6d", day)
		for j := range sigs {
			fmt.Printf(" %17.1f%%", 100*float64(counts[j])/float64(total))
		}
		fmt.Printf(" %9.1f%%\n", 100*float64(matched)/float64(total))
	}

	// The AS view: the dominant ISPs carry the bulk of tampering.
	fmt.Println()
	fmt.Print(analysis.RenderASNView("IR", asn.View("IR")))
}
