package core

import (
	"errors"
	"fmt"

	"repro/internal/control"
	"repro/internal/harness"
	"repro/internal/mat"
	"repro/internal/mcu"
)

func controlSpecs() []Spec {
	return []Spec{
		{
			Name: "fly-tiny-mpc", Stage: Control, Category: "Opt. Ctrl.", Dataset: "fly-traj",
			Prec: mcu.PrecF32, FLOPs: control.TinyMPCFLOPs,
			Factory:  func() harness.Problem { return newTinyMPCProblem() },
			oneSolve: true,
		},
		{
			Name: "fly-lqr", Stage: Control, Category: "Opt. Ctrl.", Dataset: "fly-traj",
			Prec: mcu.PrecF32, FLOPs: control.FlyLQRFLOPs,
			Factory:  func() harness.Problem { return newLQRProblem() },
			oneSolve: true,
		},
		{
			Name: "bee-mpc", Stage: Control, Category: "Opt. Ctrl.", Dataset: "bee-synth",
			Prec:    mcu.PrecF32,
			Factory: func() harness.Problem { return newBeeMPCProblem() },
		},
		{
			Name: "bee-geom", Stage: Control, Category: "Geom. Ctrl.", Dataset: "bee-synth",
			Prec:     mcu.PrecF32,
			Factory:  func() harness.Problem { return newGeomProblem() },
			oneSolve: true,
		},
		{
			Name: "bee-smac", Stage: Control, Category: "Adapt. Ctrl.", Dataset: "bee-traj",
			Prec:     mcu.PrecF32,
			Factory:  func() harness.Problem { return newSMACProblem() },
			oneSolve: true,
		},
	}
}

const ctrlDt = 0.002

// --- fly-lqr ---

type lqrProblem struct {
	ctrl  *control.LQR[F32]
	plant *control.LinearPlant[F32]
	xref  mat.Vec[F32]
	steps int
}

func newLQRProblem() *lqrProblem { return &lqrProblem{} }

func (p *lqrProblem) Name() string { return "fly-lqr" }

func (p *lqrProblem) Setup() error {
	a, b, q, r := control.FlyModel(ctrlDt)
	ctrl, err := control.NewLQR(F32(0), a, b, q, r)
	if err != nil {
		return err
	}
	p.ctrl = ctrl
	p.plant = control.NewLinearPlant(F32(0), a, b, []float64{0.25, 0, 0.15, -0.3})
	p.xref = mat.VecFromFloats(F32(0), []float64{0, 0, 0, 0})
	p.steps = 0
	return nil
}

// Solve is one closed-loop control update — the measured kernel is the
// gain multiply only; the plant step happens outside a real MCU too,
// but its cost here is negligible and kept for closed-loop validation.
func (p *lqrProblem) Solve() {
	u := p.ctrl.Update(p.plant.X, p.xref)
	p.plant.Step(u)
	p.steps++
}

func (p *lqrProblem) Validate() error {
	if p.steps < 2000 {
		return nil
	}
	if n := normInf(p.plant.X.Floats()); n > 0.05 {
		return fmt.Errorf("fly-lqr state norm %.3f after %d steps", n, p.steps)
	}
	return nil
}

func normInf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := abs(x); a > m {
			m = a
		}
	}
	return m
}

// --- fly-tiny-mpc ---

type tinyMPCProblem struct {
	ctrl  *control.TinyMPC[F32]
	plant *control.LinearPlant[F32]
	xref  mat.Vec[F32]
	steps int
}

func newTinyMPCProblem() *tinyMPCProblem { return &tinyMPCProblem{} }

func (p *tinyMPCProblem) Name() string { return "fly-tiny-mpc" }

func (p *tinyMPCProblem) Setup() error {
	a, b, q, r := control.FlyModel(ctrlDt)
	ctrl, err := control.NewTinyMPC(F32(0), a, b, q, r, control.DefaultTinyMPCConfig())
	if err != nil {
		return err
	}
	p.ctrl = ctrl
	p.plant = control.NewLinearPlant(F32(0), a, b, []float64{0.25, 0, 0.15, -0.3})
	p.xref = mat.VecFromFloats(F32(0), []float64{0, 0, 0, 0})
	p.steps = 0
	return nil
}

func (p *tinyMPCProblem) Solve() {
	u, _ := p.ctrl.Solve(p.plant.X, p.xref)
	p.plant.Step(u)
	p.steps++
}

func (p *tinyMPCProblem) Validate() error {
	if p.steps < 2000 {
		return nil
	}
	if n := normInf(p.plant.X.Floats()); n > 0.05 {
		return fmt.Errorf("fly-tiny-mpc state norm %.3f", n)
	}
	return nil
}

// --- bee-mpc ---

type beeMPCProblem struct {
	ctrl  *control.BeeMPC[F32]
	plant *control.LinearPlant[F32]
	xref  mat.Vec[F32]
	errS  error
}

func newBeeMPCProblem() *beeMPCProblem { return &beeMPCProblem{} }

func (p *beeMPCProblem) Name() string { return "bee-mpc" }

func (p *beeMPCProblem) Setup() error {
	a, b, q, r := control.FlyModel(ctrlDt)
	p.ctrl = control.NewBeeMPC(F32(0), a, b, q, r, control.DefaultBeeMPCConfig())
	p.plant = control.NewLinearPlant(F32(0), a, b, []float64{0.25, 0, 0.15, -0.3})
	p.xref = mat.VecFromFloats(F32(0), []float64{0, 0, 0, 0})
	return nil
}

func (p *beeMPCProblem) Solve() {
	u, _, err := p.ctrl.Solve(p.plant.X, p.xref)
	if err != nil {
		p.errS = err
		return
	}
	p.plant.Step(u)
}

func (p *beeMPCProblem) Validate() error { return p.errS }

// --- bee-geom ---

type geomProblem struct {
	ctrl *control.GeomCtrl[F32]
	body *control.RigidBody[F32]
	ref  control.GeomRef[F32]
}

func newGeomProblem() *geomProblem { return &geomProblem{} }

func (p *geomProblem) Name() string { return "bee-geom" }

func (p *geomProblem) Setup() error {
	mass := 0.0008
	inertia := [3]float64{1.5e-9, 1.5e-9, 0.5e-9}
	p.ctrl = control.NewGeomCtrl(F32(0), mass, inertia)
	p.body = control.NewRigidBody(F32(0), mass, inertia)
	p.body.P = mat.VecFromFloats(F32(0), []float64{0.03, -0.02, 0.01})
	zero := F32(0)
	p.ref = control.GeomRef[F32]{
		P:   mat.Vec[F32]{zero, zero, zero},
		V:   mat.Vec[F32]{zero, zero, zero},
		A:   mat.Vec[F32]{zero, zero, zero},
		Yaw: zero,
	}
	return nil
}

func (p *geomProblem) Solve() {
	thrust, moment := p.ctrl.Update(p.body.State(), p.ref)
	p.body.Step(thrust, moment, F32(0.0005))
}

func (p *geomProblem) Validate() error {
	if d := p.body.P.Norm().Float(); d > 0.2 {
		return fmt.Errorf("bee-geom diverged to %.3f m", d)
	}
	return nil
}

// --- bee-smac ---

type smacProblem struct {
	ctrl   *control.SMAC[F32]
	z, vz  float64
	roll   float64
	rolld  float64
	steps  int
	errMax float64
}

func newSMACProblem() *smacProblem { return &smacProblem{} }

func (p *smacProblem) Name() string { return "bee-smac" }

func (p *smacProblem) Setup() error {
	p.ctrl = control.NewSMAC(F32(0), 0.0008)
	p.z, p.vz = 0.1, 0
	p.roll, p.rolld = 0.1, 0
	p.steps = 0
	p.errMax = 0
	return nil
}

func (p *smacProblem) Solve() {
	st := control.SMACState[F32]{
		Z: F32(p.z), VZ: F32(p.vz),
		Roll: F32(p.roll), RollD: F32(p.rolld),
	}
	out := p.ctrl.Update(st, control.SMACRef[F32]{}, F32(ctrlDt))
	// Plant: normalized vertical axis with an unknown lift deficit, and
	// a first-order roll axis.
	uz := out.Thrust.Float()/0.0008 - 9.80665
	p.vz += (uz - 0.6) * ctrlDt
	p.z += p.vz * ctrlDt
	ur := out.RollMoment.Float()
	p.rolld += ur * ctrlDt * 40
	p.roll += p.rolld * ctrlDt
	p.steps++
	if p.steps > 2000 {
		if a := abs(p.z); a > p.errMax {
			p.errMax = a
		}
	}
}

func (p *smacProblem) Validate() error {
	if p.steps < 3000 {
		return nil
	}
	if p.errMax > 0.08 {
		return errors.New("bee-smac failed to adapt out the lift deficit")
	}
	return nil
}
