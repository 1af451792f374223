// Listaudit reproduces §5.5's measurement workflow as a standalone
// tool: run a global scenario, extract the domains passive detection
// finds tampered in each region, and audit how much of that set each
// active-measurement test list would have covered — including the
// substring best case.
//
// Run with: go run ./examples/listaudit [-total 30000]
package main

import (
	"flag"
	"fmt"

	"tamperdetect/internal/analysis"
	"tamperdetect/internal/core"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/testlists"
	"tamperdetect/internal/workload"
)

func main() {
	total := flag.Int("total", 30000, "connections to simulate")
	threshold := flag.Int("threshold", 2, "per-domain match threshold")
	flag.Parse()

	scen, err := workload.BuildScenario("listaudit", *total, 7*24, 55)
	if err != nil {
		fmt.Println("building scenario:", err)
		return
	}
	cl := core.NewClassifier(core.DefaultConfig())
	dom := analysis.NewDomainAgg()
	for _, c := range scen.Run(0) {
		rec := analysis.NewRecord(c, scen.Geo, cl.Classify(c))
		dom.Add(&rec)
	}

	sensitive := func(d *domains.Domain) bool {
		switch d.Category {
		case domains.AdultThemes, domains.News, domains.SocialNetworks, domains.Chat:
			return true
		default:
			return false
		}
	}
	suite := testlists.BuildSuite(scen.Universe, sensitive, testlists.DefaultBuildConfig())

	regions := []string{"", "CN", "IR", "RU", "IN"}
	for _, reg := range regions {
		name := reg
		if name == "" {
			name = "Global"
		}
		tampered := dom.TamperedDomains(reg, *threshold)
		fmt.Printf("%s: %d tampered domains observed passively\n", name, len(tampered))
		if len(tampered) == 0 {
			continue
		}
		for _, l := range []*testlists.List{
			suite.CitizenLab, suite.GreatfireAll, suite.Tranco100K, suite.Tranco1M,
		} {
			exact := testlists.Coverage(l, tampered, false)
			sub := testlists.Coverage(l, tampered, true)
			fmt.Printf("  %-16s exact %5.1f%%   substring best-case %5.1f%%\n",
				l.Name, 100*exact, 100*sub)
		}
		// What the lists miss is the actionable output: candidates for
		// test-list maintainers.
		curated := testlists.Union("curated", suite.CitizenLab, suite.GreatfireAll)
		missed := 0
		example := ""
		for _, d := range tampered {
			if !curated.ContainsExact(d) {
				missed++
				if example == "" {
					example = d
				}
			}
		}
		fmt.Printf("  curated lists miss %d/%d domains (e.g. %s)\n\n", missed, len(tampered), example)
	}
}
