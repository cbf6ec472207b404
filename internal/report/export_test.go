package report

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/scalar"
)

// ResealShard recomputes sr's digest, so a test can build a bundle
// whose contents were changed but whose digest is consistent.
func ResealShard(sr *ShardReport) {
	d, err := shardDigest(*sr)
	if err != nil {
		panic(err)
	}
	sr.Digest = d
}

// CS2CountsLines renders one line per Table VII row and per Fig 4
// point at fraction-bit step fig4Step, each with that run's per-update
// F/I/M/B counts, in the order RunCS2Table7 and RunFig4 run them.
func CS2CountsLines(fig4Step int) []string {
	c := func(run attitudeRun) string {
		n := run.Counts.Scale(1 / float64(run.Updates))
		return fmt.Sprintf("F=%d I=%d M=%d B=%d", n.F, n.I, n.M, n.B)
	}
	var lines []string
	recs := cs2BeeHover()
	for _, f := range append(cs2IMUFilters(), cs2MARGFilters()...) {
		lines = append(lines,
			fmt.Sprintf("table7 %s %s f32 | %s", f.Name, f.Mode, c(runAttitude(scalar.F32(0), f, recs))),
			fmt.Sprintf("table7 %s %s q7.24 | %s", f.Name, f.Mode, c(runAttitude(fixed.New(0, 24), f, recs))))
	}
	for _, ds := range cs2Datasets() {
		for _, f := range append(cs2IMUFilters(), cs2MARGFilters()...) {
			for frac := 2; frac <= 30; frac += fig4Step {
				run := runAttitude(fixed.New(0, uint8(frac)), f, ds.Recs)
				lines = append(lines, fmt.Sprintf("fig4 %s %s %s q%d.%d | %s", ds.Name, f.Name, f.Mode, 31-frac, frac, c(run)))
			}
		}
	}
	return lines
}
