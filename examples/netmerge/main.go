// netmerge reproduces the §5 workflow (Figs 8–9): the Xiaonei/5Q merge —
// duplicate-account estimation, edge-type dynamics, and the collapse of the
// distance between the two networks. It demonstrates the out-of-core data
// plane end to end: the trace is stream-generated straight to disk and the
// pipeline replays it through a FileSource, so the event stream is never
// resident in memory.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run keeps error handling deferred-friendly: the temp dir is removed on
// every exit path (log.Fatal in main would skip defers).
func run() error {
	dir, err := os.MkdirTemp("", "netmerge")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "renren.trace")

	// Stream-generate: simulation events go straight into the encoder.
	meta, err := gen.GenerateToFile(gen.SmallConfig(), path)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d xiaonei + %d 5q users at the merge (day %d), %d later arrivals\n",
		meta.Xiaonei, meta.FiveQ, meta.MergeDay, meta.NewUsers)

	// Stream-replay: the trace is validated and analyzed straight off
	// disk through FileSource cursors, and the demand-driven plan for the
	// §5 panels runs only the osnmerge stage.
	src, err := trace.OpenTrace(path)
	if err != nil {
		return err
	}
	if err := trace.ValidateSource(src); err != nil {
		return err
	}
	pres, err := core.RunFigures(context.Background(), src, core.DefaultConfig(),
		"fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c")
	if err != nil {
		return err
	}
	res := pres.Merge
	fmt.Printf("activity threshold: %d days (the paper's t=94 analogue)\n", res.ActivityThreshold)

	// Fig 8a/8b: duplicate accounts.
	fmt.Printf("fig8ab: immediately inactive accounts: xiaonei %.0f%%, 5q %.0f%% "+
		"(generator planted 11%% / 28%%)\n",
		100*res.InactiveAtMergeXiaonei, 100*res.InactiveAtMergeFiveQ)

	// Fig 8c: which edge type drives growth, and when the crossover happens.
	crossover := int32(-1)
	for _, d := range res.EdgesPerDay {
		if d.NewUsers > d.Internal && d.NewUsers > d.External {
			crossover = d.Day
			break
		}
	}
	fmt.Printf("fig8c: new-user edges first dominate on day +%d after the merge\n", crossover)

	// Fig 9a/9b: edge-type preferences per network.
	lastX := res.RatiosXiaonei[len(res.RatiosXiaonei)-1]
	lastQ := res.RatiosFiveQ[len(res.RatiosFiveQ)-1]
	fmt.Printf("fig9a: final internal/external ratio: xiaonei %.2f, 5q %.2f\n",
		lastX.IntOverExt, lastQ.IntOverExt)
	fmt.Printf("fig9b: final new/external ratio:      xiaonei %.2f, 5q %.2f\n",
		lastX.NewOverExt, lastQ.NewOverExt)

	// Fig 9c: the two OSNs become one connected whole.
	fmt.Println("fig9c: inter-OSN distance (pre-merge users only):")
	for i, p := range res.Distances {
		if i%4 == 0 || i == len(res.Distances)-1 {
			fmt.Printf("  day +%3d: xiaonei->5q %.2f hops, 5q->xiaonei %.2f hops\n",
				p.DaysAfter, p.XiaoneiTo5Q, p.FiveQToXiaonei)
		}
	}
	return nil
}
