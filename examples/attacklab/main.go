// Attacklab: adversarial schedules as data. Lemma 4's stale-release run is
// one runner.Script — the step list runner.RunSeparation executes — printed
// here as JSON, loaded back with runner.LoadScript and replayed through
// runner.RunScript against three constructions: only the base-object type
// changes, and only the plain-register baseline breaks. Save the printed
// document, edit its steps and load it the same way to explore the
// environment's power yourself. The program exits 1 on an unexpected
// outcome.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/internal/runner"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	fmt.Println("one schedule, three base-object types (Lemma 4's run):")
	for _, kind := range []runner.Kind{
		runner.KindNaive,  // 3 plain registers: below the kf+f+1 bound
		runner.KindABDMax, // 3 max-registers: Table 1 optimum
		runner.KindCASMax, // 3 CAS cells: Table 1 optimum
	} {
		doc, err := json.MarshalIndent(runner.StaleReleaseScript(kind, 1), "", "  ")
		if err != nil {
			log.Fatalf("%s: marshal: %v", kind, err)
		}
		if kind == runner.KindNaive {
			fmt.Printf("%s\n", doc)
		}
		s, err := runner.LoadScript(bytes.NewReader(doc))
		if err != nil {
			log.Fatalf("%s: load: %v", kind, err)
		}
		res, err := runner.RunScript(ctx, s)
		if err != nil {
			log.Fatalf("%s: run: %v", kind, err)
		}
		status := "SAFE     (read the fresh value)"
		if res.Checks.WSSafety != nil {
			status = "VIOLATED (read the stale value)"
		}
		fmt.Printf("  %-8s read=%v  %s  expectations met: %v\n", kind, res.Reads, status, res.Met())
		if !res.Met() {
			log.Fatalf("%s: unexpected outcome: %v", kind, res.Failures)
		}
	}
	fmt.Println("\nthe released covering write overwrites a plain register but cannot")
	fmt.Println("regress a max-register or a CAS cell — Table 1's separation as data.")
}
