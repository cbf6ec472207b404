package core

import (
	"errors"
	"fmt"

	"repro/internal/attitude"
	"repro/internal/dataset"
	"repro/internal/ekf"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/imu"
	"repro/internal/mat"
	"repro/internal/mcu"
	"repro/internal/pose"
	"repro/internal/scalar"
)

// F32 is the canonical build precision of the suite.
type F32 = scalar.F32

func estimationSpecs() []Spec {
	specs := []Spec{
		{
			Name: "mahony", Stage: Estimation, Category: "Att. Est.", Dataset: "bee-synth",
			Prec:     mcu.PrecF32,
			Factory:  func() harness.Problem { return newAttitudeProblem("mahony", attitude.IMUOnly) },
			oneSolve: true,
		},
		{
			Name: "madgwick", Stage: Estimation, Category: "Att. Est.", Dataset: "bee-synth",
			Prec:     mcu.PrecF32,
			Factory:  func() harness.Problem { return newAttitudeProblem("madgwick", attitude.IMUOnly) },
			oneSolve: true,
		},
		{
			Name: "fourati", Stage: Estimation, Category: "Att. Est.", Dataset: "bee-synth",
			Prec:     mcu.PrecF32,
			Factory:  func() harness.Problem { return newAttitudeProblem("fourati", attitude.MARG) },
			oneSolve: true,
		},
		{
			Name: "fly-ekf (sync)", Stage: Estimation, Category: "Kalman Filt.", Dataset: "fly-synth",
			Prec: mcu.PrecF32, FLOPs: ekf.FlyEKFFLOPs,
			Factory:  func() harness.Problem { return newFlyEKFProblem(ekf.Sync) },
			oneSolve: true,
		},
		{
			Name: "fly-ekf (seq)", Stage: Estimation, Category: "Kalman Filt.", Dataset: "fly-synth",
			Prec: mcu.PrecF32, FLOPs: ekf.FlyEKFFLOPs,
			Factory:  func() harness.Problem { return newFlyEKFProblem(ekf.Sequential) },
			oneSolve: true,
		},
		{
			Name: "fly-ekf (trunc)", Stage: Estimation, Category: "Kalman Filt.", Dataset: "fly-synth",
			Prec: mcu.PrecF32, FLOPs: ekf.FlyEKFTruncFLOPs,
			Factory: func() harness.Problem { return newFlyEKFProblem(ekf.Truncated) },
		},
		{
			Name: "bee-ceekf", Stage: Estimation, Category: "Kalman Filt.", Dataset: "bee-hil",
			Prec: mcu.PrecF32, FLOPs: ekf.BeeCEEKFFLOPs,
			Factory:  func() harness.Problem { return newBeeEKFProblem() },
			oneSolve: true,
		},
	}
	specs = append(specs, poseSpecs()...)
	return specs
}

func poseSpecs() []Spec {
	abs := func(name, cat, ds string, solve func(*posedProblem)) Spec {
		return Spec{
			Name: name, Stage: Estimation, Category: cat, Dataset: ds, Prec: mcu.PrecF32,
			Factory:  func() harness.Problem { return newPoseProblem(name, solve) },
			oneSolve: true,
		}
	}
	return []Spec{
		abs("p3p", "Abs. Pose", "abs-synth", solveP3P),
		abs("up2p", "Abs. Pose", "up-abs-synth", solveUP2P),
		abs("dlt", "Abs. Pose", "abs-synth", solveDLT),
		abs("absgoldstd", "Abs. Pose", "abs-synth", solveAbsGold),
		abs("up2pt", "Rel. Pose", "str-rel-synth", solveUP2PT),
		abs("up3pt", "Rel. Pose", "str-rel-synth", solveUP3PT),
		abs("u3pt", "Rel. Pose", "upr-rel-synth", solveU3PT),
		abs("5pt", "Rel. Pose", "rel-synth", solve5pt),
		abs("8pt", "Rel. Pose", "rel-synth", solve8pt),
		abs("relgoldstd", "Rel. Pose", "rel-synth", solveRelGold),
		abs("homography", "Abs./Rel. Pose", "homog-synth", solveHomog),
		abs("abs-lo-ransac", "Robust Pose", "rob-abs-synth", solveAbsRansac),
		abs("rel-lo-ransac", "Robust Pose", "rob-rel-synth", solveRelRansac),
	}
}

// --- attitude ---

// attitudeProblem feeds one filter update per Solve from a 2 s, 400 Hz
// hover stream of attitudeRecords records, wrapping around at the end.
// The stream is generated lazily: Setup starts the generator and each
// Solve or Validate extends recs only up to the record it reads, so a
// prepare that runs a handful of updates simulates a handful of
// records, not the whole stream. recs never grows past attitudeRecords,
// and the wrap reads the records already made, so every index sees
// exactly imu.Simulate's record.
type attitudeProblem struct {
	kernel string
	mode   attitude.Mode
	stream *imu.Stream
	recs   []imu.Record
	filter attitude.Filter[F32]
	idx    int
}

// attitudeRecords is the stream length: 2 s at 400 Hz.
const attitudeRecords = 800

// record returns record i of the stream (taken modulo its length),
// generating records up to it on first use.
func (p *attitudeProblem) record(i int) imu.Record {
	i %= attitudeRecords
	for len(p.recs) <= i {
		p.recs = append(p.recs, p.stream.Next())
	}
	return p.recs[i]
}

func newAttitudeProblem(kernel string, mode attitude.Mode) *attitudeProblem {
	return &attitudeProblem{kernel: kernel, mode: mode}
}

func (p *attitudeProblem) Name() string { return p.kernel }

func (p *attitudeProblem) Setup() error {
	p.stream = imu.NewStream(imu.HoverTrajectory(0.12, 0.1, 2), 400, imu.DefaultNoise(), 303)
	p.recs = p.recs[:0]
	switch p.kernel {
	case "mahony":
		p.filter = attitude.NewMahony(F32(0), p.mode, 2.0, 0.02)
	case "madgwick":
		p.filter = attitude.NewMadgwick(F32(0), p.mode, 0.12)
	default:
		p.filter = attitude.NewFourati(F32(0), 0.8, 1e-3)
	}
	p.idx = 0
	return nil
}

// Solve is one filter update — the high-rate proprioceptive kernel.
func (p *attitudeProblem) Solve() {
	r := p.record(p.idx)
	p.idx++
	p.filter.Update(imu.SampleAs(F32(0), r))
}

func (p *attitudeProblem) Validate() error {
	if p.idx < 10 {
		return nil // too few updates to judge convergence
	}
	r := p.record(p.idx - 1)
	q := p.filter.Quat()
	est := geom.QuatFromFloats(scalar.F64(0), q.W.Float(), q.X.Float(), q.Y.Float(), q.Z.Float())
	if e := geom.QuatAngleDegrees(est, r.Truth); e > 15 {
		return fmt.Errorf("%s attitude error %.1f°", p.kernel, e)
	}
	return nil
}

// --- EKFs ---

type flyEKFProblem struct {
	strategy ekf.Strategy
	filter   *ekf.FlyEKF[F32]
	idx      int
	// Prerecorded sensor stream.
	omega, az, tof, flowv, acc []float32
	truthZ                     []float64
}

func newFlyEKFProblem(s ekf.Strategy) *flyEKFProblem { return &flyEKFProblem{strategy: s} }

func (p *flyEKFProblem) Name() string { return "fly-ekf (" + p.strategy.String() + ")" }

func (p *flyEKFProblem) Setup() error {
	p.filter = ekf.NewFlyEKF(F32(0), p.strategy, ekf.DefaultFlyEKFConfig(), 0.5)
	// Deterministic hover-bob stream (mirrors the ekf tests' simulator).
	n := 512
	p.omega = make([]float32, n)
	p.az = make([]float32, n)
	p.tof = make([]float32, n)
	p.flowv = make([]float32, n)
	p.acc = make([]float32, n)
	p.truthZ = make([]float64, n)
	theta, vx, z, vz := 0.0, 0.0, 0.5, 0.0
	dt := 0.002
	rng := int64(12345)
	noise := func(s float64) float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (float64(uint64(rng)>>11)/float64(1<<53) - 0.5) * 2 * s
	}
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		om := 0.4 * cosApprox(2*3.14159265*1.5*t)
		azv := 9.80665 + 0.3*sinApprox(2*3.14159265*0.8*t)
		theta += om * dt
		vx += (9.80665*theta - 0.5*vx) * dt
		z += vz * dt
		vz += (azv - 9.80665) * dt
		p.omega[i] = float32(om + noise(0.002))
		p.az[i] = float32(azv + noise(0.05))
		p.tof[i] = float32(z/cosApprox(theta) + noise(0.005))
		p.flowv[i] = float32(vx/z + noise(0.02))
		p.acc[i] = float32(9.80665*theta + noise(0.1))
		p.truthZ[i] = z
	}
	p.idx = 0
	return nil
}

func sinApprox(x float64) float64 { return scalar.Sin(scalar.F64(x)).Float() }
func cosApprox(x float64) float64 { return scalar.Cos(scalar.F64(x)).Float() }

// Solve is one fully fused epoch: predict plus all three sensor
// updates, matching Table VIII's "per update" accounting (the claimed
// FLOP counts are for the fused update).
func (p *flyEKFProblem) Solve() {
	i := p.idx % len(p.omega)
	p.idx++
	tof := F32(p.tof[i])
	flowv := F32(p.flowv[i])
	acc := F32(p.acc[i])
	_ = p.filter.Step(F32(p.omega[i]), F32(p.az[i]), F32(0.002), &tof, &flowv, &acc)
}

func (p *flyEKFProblem) Validate() error {
	if p.idx < 50 {
		return nil
	}
	i := (p.idx - 1) % len(p.omega)
	_, _, z, _ := p.filter.State()
	if e := abs(z - p.truthZ[i]); e > 0.1 {
		return fmt.Errorf("fly-ekf altitude error %.3f m", e)
	}
	return nil
}

type beeEKFProblem struct {
	filter *ekf.BeeCEEKF[F32]
	idx    int
	az     []float32
	tof    []float32
	truthZ []float64
}

func newBeeEKFProblem() *beeEKFProblem { return &beeEKFProblem{} }

func (p *beeEKFProblem) Name() string { return "bee-ceekf" }

func (p *beeEKFProblem) Setup() error {
	p.filter = ekf.NewBeeCEEKF(F32(0), ekf.Sync, ekf.DefaultBeeCEEKFConfig())
	n := 512
	p.az = make([]float32, n)
	p.tof = make([]float32, n)
	p.truthZ = make([]float64, n)
	z, vz := 0.0, 0.0
	dt := 0.004
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		azv := 9.80665 + 0.5*sinApprox(2*3.14159265*0.7*t)
		vz += (azv - 9.80665) * dt
		z += vz * dt
		p.az[i] = float32(azv)
		p.tof[i] = float32(z)
		p.truthZ[i] = z
	}
	p.idx = 0
	return nil
}

func (p *beeEKFProblem) Solve() {
	i := p.idx % len(p.az)
	p.idx++
	zero := F32(0)
	accel := mat.Vec[F32]{zero, zero, F32(p.az[i])}
	gyro := mat.Vec[F32]{zero, zero, zero}
	attRef := mat.Vec[F32]{zero, zero}
	tof := F32(p.tof[i])
	_ = p.filter.Step(accel, gyro, F32(0.004), &tof, attRef)
}

func (p *beeEKFProblem) Validate() error {
	if p.idx < 100 {
		return nil
	}
	i := (p.idx - 1) % len(p.az)
	if e := abs(p.filter.Position()[2] - p.truthZ[i]); e > 0.1 {
		return fmt.Errorf("bee-ceekf altitude error %.3f m", e)
	}
	return nil
}

// --- pose ---

// posedProblem carries both problem families; each solver closure reads
// what it needs.
type posedProblem struct {
	name   string
	absP   dataset.AbsProblem
	relP   dataset.RelProblem
	absC   []pose.AbsCorrespondence[F32]
	relC   []pose.RelCorrespondence[F32]
	homogP dataset.RelProblem
	homogC []pose.RelCorrespondence[F32]

	solve  func(*posedProblem)
	rotErr float64
	solved bool
	failed bool
}

func newPoseProblem(name string, solve func(*posedProblem)) *posedProblem {
	return &posedProblem{name: name, solve: solve}
}

func (p *posedProblem) Name() string { return p.name }

func (p *posedProblem) Setup() error {
	// Canonical problem instances at the paper's standalone-solver
	// benchmark noise (0.1 px, Fig 5b-c); the robust kernels below use
	// 0.5 px plus 25% outliers (Case Study #4).
	p.absP = dataset.GenAbsProblem(dataset.PoseGenConfig{
		N: 16, PixelNoise: 0.1, Upright: true, Seed: 404,
	})
	p.absC = dataset.ConvertAbs(F32(0), p.absP)
	upright := p.name == "up2pt" || p.name == "up3pt" || p.name == "u3pt"
	planar := p.name == "up2pt" || p.name == "up3pt"
	p.relP = dataset.GenRelProblem(dataset.PoseGenConfig{
		N: 16, PixelNoise: 0.1, Upright: upright, Planar: planar, Seed: 405,
	})
	p.relC = dataset.ConvertRel(F32(0), p.relP)
	// Robust problems carry outliers (Case Study #4's configuration).
	if p.name == "abs-lo-ransac" {
		p.absP = dataset.GenAbsProblem(dataset.PoseGenConfig{
			N: 100, PixelNoise: 0.5, OutlierRatio: 0.25, Upright: true, Seed: 406,
		})
		p.absC = dataset.ConvertAbs(F32(0), p.absP)
	}
	if p.name == "rel-lo-ransac" {
		p.relP = dataset.GenRelProblem(dataset.PoseGenConfig{
			N: 100, PixelNoise: 0.5, OutlierRatio: 0.25, Upright: true, Seed: 407,
		})
		p.relC = dataset.ConvertRel(F32(0), p.relP)
	}
	p.rotErr = 0
	p.solved = false
	p.failed = false
	return nil
}

func (p *posedProblem) Solve() { p.solve(p) }

func (p *posedProblem) Validate() error {
	if !p.solved {
		return errors.New("pose kernel did not run")
	}
	if p.failed {
		return fmt.Errorf("%s failed to produce a pose", p.name)
	}
	tol := 3.0
	if p.name == "8pt" || p.name == "dlt" || p.name == "homography" {
		tol = 5.0
	}
	if p.rotErr > tol {
		return fmt.Errorf("%s rotation error %.2f°", p.name, p.rotErr)
	}
	return nil
}

func (p *posedProblem) recordAbs(cands []pose.Pose[F32], err error) {
	p.solved = true
	if err != nil {
		p.failed = true
		return
	}
	best, ok := pose.BestAbsPose(cands, p.absC)
	if !ok {
		p.failed = true
		return
	}
	p.rotErr = dataset.RotationErr(best, p.absP.Truth)
}

func (p *posedProblem) recordRel(cands []pose.Pose[F32], err error) {
	p.solved = true
	if err != nil {
		p.failed = true
		return
	}
	best, ok := pose.BestRelPose(cands, p.relC)
	if !ok {
		p.failed = true
		return
	}
	p.rotErr = dataset.RotationErr(best, p.relP.Truth)
}

func solveP3P(p *posedProblem) {
	cands, err := pose.P3P(p.absC[:3])
	p.recordAbs(cands, err)
}

func solveUP2P(p *posedProblem) {
	cands, err := pose.UP2P(p.absC[:2])
	p.recordAbs(cands, err)
}

func solveDLT(p *posedProblem) {
	est, err := pose.DLT(p.absC)
	p.recordAbs([]pose.Pose[F32]{est}, err)
}

func solveAbsGold(p *posedProblem) {
	est, err := pose.AbsGoldStandard(p.absC)
	p.recordAbs([]pose.Pose[F32]{est}, err)
}

func solveUP2PT(p *posedProblem) {
	cands, err := pose.UP2PT(p.relC[:2])
	p.recordRel(cands, err)
}

func solveUP3PT(p *posedProblem) {
	cands, err := pose.UP3PT(p.relC)
	p.recordRel(cands, err)
}

func solveU3PT(p *posedProblem) {
	cands, err := pose.U3PT(p.relC[:3])
	p.recordRel(cands, err)
}

func solve5pt(p *posedProblem) {
	cands, err := pose.FivePoint(p.relC[:5])
	p.recordRel(cands, err)
}

func solve8pt(p *posedProblem) {
	est, err := pose.EightPoint(p.relC)
	p.recordRel([]pose.Pose[F32]{est}, err)
}

func solveRelGold(p *posedProblem) {
	est, err := pose.RelGoldStandard(p.relC)
	p.recordRel([]pose.Pose[F32]{est}, err)
}

func solveHomog(p *posedProblem) {
	h, err := pose.Homography(p.relC[:8])
	p.solved = true
	if err != nil {
		p.failed = true
		return
	}
	// Transfer error over the sample as the quality metric.
	var worst float64
	for _, c := range p.relC[:8] {
		if e := pose.HomographyTransferErr(h, c).Float(); e > worst {
			worst = e
		}
	}
	p.rotErr = worst * dataset.FocalPx / 10 // scaled into the ° tolerance band
}

func solveAbsRansac(p *posedProblem) {
	cfg := pose.DefaultRansacConfig()
	est, _, _, err := pose.AbsLoRansac(p.absC, pose.P3P[F32], 3, cfg)
	p.recordAbs([]pose.Pose[F32]{est}, err)
}

func solveRelRansac(p *posedProblem) {
	cfg := pose.DefaultRansacConfig()
	est, _, _, err := pose.RelLoRansac(p.relC, pose.U3PT[F32], 3, cfg)
	p.recordRel([]pose.Pose[F32]{est}, err)
}
