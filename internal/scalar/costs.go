package scalar

import "repro/internal/profile"

// OpCosts is the per-operation instruction-mix price of one scalar
// implementation: exactly what each hooked Real method charges the
// profiler per call.
type OpCosts struct {
	Add  profile.Counts
	Sub  profile.Counts
	Mul  profile.Counts
	Div  profile.Counts
	Neg  profile.Counts
	Abs  profile.Counts
	Sqrt profile.Counts
	// Cmp is the price of Less/LessEq.
	Cmp profile.Counts
}

// FloatOpCosts prices F32 and F64: every arithmetic method is one F op
// (the MCU model charges double-precision penalties downstream, not
// here), comparisons are one branch. mat's native bodies price whole
// loops from it.
var FloatOpCosts = OpCosts{
	Add:  profile.Counts{F: 1},
	Sub:  profile.Counts{F: 1},
	Mul:  profile.Counts{F: 1},
	Div:  profile.Counts{F: 1},
	Neg:  profile.Counts{F: 1},
	Abs:  profile.Counts{F: 1},
	Sqrt: profile.Counts{F: 1},
	Cmp:  profile.Counts{B: 1},
}

// ScaleCounts returns cost repeated n times — the aggregate charge of n
// identical operations.
func ScaleCounts(cost profile.Counts, n uint64) profile.Counts {
	return profile.Counts{F: cost.F * n, I: cost.I * n, M: cost.M * n, B: cost.B * n}
}
