package photonics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultDeviceParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []func(*DeviceParams){
		func(p *DeviceParams) { p.CouplerLossDB = -1 },
		func(p *DeviceParams) { p.WaveguideLossDBPerCm = math.NaN() },
		func(p *DeviceParams) { p.RingDropLossDB = math.Inf(1) },
		func(p *DeviceParams) { p.LaserEfficiency = 0 },
		func(p *DeviceParams) { p.LaserEfficiency = 1.5 },
		func(p *DeviceParams) { p.DetectorSensitivityDBm = math.NaN() },
		func(p *DeviceParams) { p.TuningPowerMWPerRing = -0.1 },
	}
	for i, m := range mutations {
		p := DefaultDeviceParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestLossLinearity(t *testing.T) {
	p := DefaultDeviceParams()
	base := PathProfile{Couplers: 1, WaveguideCm: 2, RingsPassed: 10, RingsDropped: 1, PhotodetectorOn: true}
	l1 := p.LossDB(base)
	more := base
	more.RingsPassed += 100
	l2 := p.LossDB(more)
	if got, want := l2-l1, 100*p.RingThroughLossDB; math.Abs(got-want) > 1e-9 {
		t.Fatalf("100 extra rings added %g dB, want %g", got, want)
	}
	if p.LossDB(PathProfile{}) != 0 {
		t.Fatal("empty path should have zero loss")
	}
}

func TestDBmConversionsInverse(t *testing.T) {
	if err := quick.Check(func(raw int16) bool {
		dbm := float64(raw) / 100 // −327..327 dBm range
		return math.Abs(10*math.Log10(dbmToMW(dbm))-dbm) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
	if dbmToMW(0) != 1 {
		t.Fatal("0 dBm should be 1 mW")
	}
}

func TestLaserPowerMonotoneInLoss(t *testing.T) {
	p := DefaultDeviceParams()
	prev := 0.0
	for loss := 0.0; loss <= 30; loss += 5 {
		pw := p.LaserPowerPerWavelengthMW(loss)
		if pw <= prev {
			t.Fatalf("laser power not increasing with loss: %g at %g dB", pw, loss)
		}
		prev = pw
	}
	// 10 dB more loss = 10x more laser power.
	r := p.LaserPowerPerWavelengthMW(20) / p.LaserPowerPerWavelengthMW(10)
	if math.Abs(r-10) > 1e-9 {
		t.Fatalf("10 dB should cost 10x, got %gx", r)
	}
}

func TestCrossbarGeometry(t *testing.T) {
	g := CrossbarGeometry{Nodes: 64, WavelengthsPerChannel: 16, DieEdgeCm: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 64 nodes → 8 rows → serpentine 16 cm.
	if got := g.SerpentineLengthCm(); got != 16 {
		t.Fatalf("serpentine = %g cm, want 16", got)
	}
	// rings: 64*63*16 modulators + 64*16 receivers.
	if got, want := g.TotalRings(), 64*63*16+64*16; got != want {
		t.Fatalf("rings = %d, want %d", got, want)
	}
	wp := g.WorstPath()
	if wp.RingsPassed != (64-2)*16 {
		t.Fatalf("worst path rings passed = %d", wp.RingsPassed)
	}
	if !wp.PhotodetectorOn || wp.RingsDropped != 1 {
		t.Fatal("worst path must end in one drop + detector")
	}
}

func TestCrossbarGeometryRejections(t *testing.T) {
	bad := []CrossbarGeometry{
		{Nodes: 1, WavelengthsPerChannel: 1, DieEdgeCm: 1},
		{Nodes: 4, WavelengthsPerChannel: 0, DieEdgeCm: 1},
		{Nodes: 4, WavelengthsPerChannel: 1, DieEdgeCm: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %d accepted", i)
		}
	}
}

func TestComputeBudget(t *testing.T) {
	p := DefaultDeviceParams()
	g := CrossbarGeometry{Nodes: 16, WavelengthsPerChannel: 8, DieEdgeCm: 2}
	b, err := ComputeBudget(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if b.WorstLossDB <= 0 {
		t.Fatal("non-positive worst loss")
	}
	if b.LaserPowerMW <= 0 || b.TuningPowerMW <= 0 {
		t.Fatal("non-positive static power")
	}
	if b.WavelengthsOnChip != 16*8 {
		t.Fatalf("wavelengths = %d", b.WavelengthsOnChip)
	}
	if b.TotalRings != g.TotalRings() {
		t.Fatal("ring count mismatch")
	}

	// More nodes → strictly more loss and more laser power.
	g2 := g
	g2.Nodes = 64
	b2, err := ComputeBudget(p, g2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.WorstLossDB <= b.WorstLossDB || b2.LaserPowerMW <= b.LaserPowerMW {
		t.Fatalf("scaling up nodes did not increase budget: %+v vs %+v", b2, b)
	}
}

func TestComputeBudgetRejectsInvalid(t *testing.T) {
	p := DefaultDeviceParams()
	p.LaserEfficiency = -1
	if _, err := ComputeBudget(p, CrossbarGeometry{Nodes: 4, WavelengthsPerChannel: 1, DieEdgeCm: 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := ComputeBudget(DefaultDeviceParams(), CrossbarGeometry{}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestDynamicEnergy(t *testing.T) {
	p := DefaultDeviceParams()
	if got, want := p.DynamicEnergyPJ(1000), 1000*(p.ModulationEnergyPJPerBit+p.ReceiverEnergyPJPerBit); math.Abs(got-want) > 1e-9 {
		t.Fatalf("dynamic energy = %g, want %g", got, want)
	}
	if p.DynamicEnergyPJ(0) != 0 {
		t.Fatal("zero bits should cost zero energy")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
