package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/mcu"
)

// Request classes of the daemon-mix workload.
const (
	classHot      = iota // repeat of a hot query: a sweep-memo hit
	classFresh           // new kernel subset over warm cells: cell-store reads
	classNewBoard        // subset on a board not used before: MeasureOn + cell-store writes
	numClasses
)

var classNames = [numClasses]string{"hot", "fresh", "newboard"}

// mixBlock is the class make-up of every block of blockSize
// consecutive requests: 60% hot, 35% fresh, 5% new board. The order
// inside a block is shuffled by the seed. Fixing the make-up per block,
// instead of drawing each class independently, makes the per-class
// request counts, and with them every exact work count, independent of
// the seed. New-board requests create files in the cell store, the step
// most exposed to a shared disk's stalls; kept to 5% of the requests
// and two kernels (four writes) each, they stay below the p90, which
// the fresh class sets.
var mixBlock = [numClasses]int{classHot: 12, classFresh: 7, classNewBoard: 1}

const blockSize = 20

// Kernels per query of each class, and the number of hot queries.
const (
	hotQueries      = 3
	hotKernels      = 8
	freshKernels    = 8
	newBoardKernels = 2
)

// query is one POST /v1/sweep body the load generator sends.
type query struct {
	Kernels []string `json:"kernels"`
	Archs   string   `json:"archs,omitempty"`
}

// request is one scheduled daemon-mix request.
type request struct {
	class int
	q     query
	board int // index into plan.boards for classNewBoard, else -1
}

// plan is everything the daemon-mix workload sends, derived from the
// seed alone: the hot queries, the request sequence, and the extra
// boards registered during setup (one per new-board request).
type plan struct {
	hot    []query
	reqs   []request
	boards []mcu.Arch
}

// genPlan builds the request sequence for n requests (rounded up to
// whole blocks). pool is the kernel vocabulary in suite order,
// bases the boards new boards are derived from. Kernel subsets keep
// suite order, so a subset's identity is its set of names.
func genPlan(seed int64, n int, pool []string, bases []mcu.Arch) plan {
	rng := rand.New(rand.NewSource(seed))
	var p plan
	seen := map[string]bool{}
	// subset draws k kernels. A unique subset differs from every unique
	// subset drawn before, so it is a new SweepKey; new-board subsets
	// need no such care, as their board is new.
	subset := func(k int, unique bool) []string {
		for {
			idx := rng.Perm(len(pool))[:k]
			mark := make([]bool, len(pool))
			for _, i := range idx {
				mark[i] = true
			}
			var names []string
			for i, m := range mark {
				if m {
					names = append(names, pool[i])
				}
			}
			if !unique {
				return names
			}
			if key := strings.Join(names, "\x00"); !seen[key] {
				seen[key] = true
				return names
			}
		}
	}
	for i := 0; i < hotQueries; i++ {
		p.hot = append(p.hot, query{Kernels: subset(hotKernels, true)})
	}
	for len(p.reqs) < n {
		var block []int
		for c, k := range mixBlock {
			for i := 0; i < k; i++ {
				block = append(block, c)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			r := request{class: c, board: -1}
			switch c {
			case classHot:
				r.q = p.hot[rng.Intn(len(p.hot))]
			case classFresh:
				r.q = query{Kernels: subset(freshKernels, true)}
			case classNewBoard:
				b := newBoard(rng, seed, len(p.boards), bases[rng.Intn(len(bases))])
				r.board = len(p.boards)
				p.boards = append(p.boards, b)
				r.q = query{Kernels: subset(newBoardKernels, false), Archs: "tableiv," + b.Name}
			}
			p.reqs = append(p.reqs, r)
		}
	}
	return p
}

// newBoard derives a valid board from base with every model parameter
// scaled by a seeded factor in [0.9, 1.1). Its SRAM is large enough for
// every kernel in the daemon-mix pool, so it adds exactly two cells per
// kernel of a query.
func newBoard(rng *rand.Rand, seed int64, i int, base mcu.Arch) mcu.Arch {
	j := func(v float64) float64 { return v * (0.9 + 0.2*rng.Float64()) }
	b := base
	b.Name = fmt.Sprintf("pb%d-%d", seed, i)
	b.Board = "perfbench synthetic board"
	b.Source = ""
	b.ClockHz = j(base.ClockHz)
	if b.SRAMKB < 4096 {
		b.SRAMKB = 4096
	}
	m := &b.Model
	for _, f := range []*float64{&m.CPIF32, &m.CPIF64, &m.CPII, &m.CPIB, &m.MemOn, &m.MemOff,
		&m.BranchOffPenalty, &m.IPC, &m.SoftF32, &m.SoftF64, &m.BasePowerOnW, &m.BasePowerOffW,
		&m.DynFOnW, &m.DynMOnW, &m.DynFOffW, &m.DynMOffW} {
		*f = j(*f)
	}
	// Keep the model's physical constraints (mcu.ModelParams.Validate).
	m.SoftF32, m.SoftF64 = math.Max(1, m.SoftF32), math.Max(1, m.SoftF64)
	m.MemOff = math.Max(m.MemOff, m.MemOn)
	return b
}
