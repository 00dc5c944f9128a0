// Spectre PoC: run real transient-execution attacks against the
// simulated CPUs and watch each mitigation shut its attack down.
//
//	go run ./examples/spectre-poc
package main

import (
	"fmt"
	"log"

	"spectrebench/internal/attacks"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
)

func main() {
	// Skylake Client is vulnerable to every attack in the taxonomy.
	m := model.SkylakeClient()
	def := kernel.Defaults(m)
	fmt.Printf("== Every taxonomy PoC on %s: unmitigated, then under the kernel's defaults ==\n", m.Uarch)
	for _, a := range attacks.Taxonomy {
		if a.Leaks == nil {
			fmt.Printf("  %-18s (no PoC)\n", a.ID)
			continue
		}
		open, err := a.Leaks(m, kernel.Mitigations{})
		must(err)
		still, err := a.Leaks(m, def)
		must(err)
		fmt.Printf("  %-18s unmitigated: %-8s defaults: %s\n", a.ID, verdict(open), verdict(still))
	}
	fmt.Println("  (mds-smt needs nosmt and ssb-any needs SSBD everywhere: neither is a default)")
	fmt.Println()

	fmt.Println("== §6 probe: who can poison whose branch target buffer? ==")
	for _, mm := range []*model.CPU{model.SkylakeClient(), model.CascadeLake(), model.Zen3()} {
		res, err := attacks.RunProbe(mm, false)
		must(err)
		fmt.Printf("  %-16s", mm.Uarch)
		for s := attacks.Scenario(0); s < 5; s++ {
			v := " "
			if res.Speculated[s] {
				v = "✓"
			}
			fmt.Printf(" [%s %s]", s, v)
		}
		fmt.Println()
	}
}

func verdict(leaked bool) string {
	if leaked {
		return "leaks"
	}
	return "blocked"
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
