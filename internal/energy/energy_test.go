package energy

import (
	"math"
	"testing"

	"harmony/internal/trace"
)

func TestTableIIShape(t *testing.T) {
	models := TableII()
	if len(models) != 4 {
		t.Fatalf("models = %d, want 4", len(models))
	}
	total := 0
	for _, m := range models {
		total += m.Count
		if m.CPUCap <= 0 || m.CPUCap > 1 || m.MemCap <= 0 || m.MemCap > 1 {
			t.Errorf("%s capacity out of range: %v/%v", m.Name, m.CPUCap, m.MemCap)
		}
		if m.IdleWatts <= 0 || m.AlphaCPU <= 0 {
			t.Errorf("%s power params non-positive", m.Name)
		}
	}
	if total != 10000 {
		t.Errorf("total machines = %d, want 10000", total)
	}
	// The largest machine is normalized to 1/1.
	last := models[3]
	if last.CPUCap != 1 || last.MemCap != 1 {
		t.Errorf("DL585 capacity = %v/%v, want 1/1", last.CPUCap, last.MemCap)
	}
	// Larger machines draw more at idle, as in Figure 9.
	for i := 1; i < len(models); i++ {
		if models[i].IdleWatts <= models[i-1].IdleWatts {
			t.Errorf("idle watts not increasing at %s", models[i].Name)
		}
	}
}

func TestPowerLinear(t *testing.T) {
	m := Model{IdleWatts: 100, AlphaCPU: 50, AlphaMem: 20}
	if got := m.Power(0, 0); got != 100 {
		t.Errorf("idle power = %v", got)
	}
	if got := m.Power(1, 1); got != 170 {
		t.Errorf("peak power = %v", got)
	}
	if got := m.Power(0.5, 0.5); got != 135 {
		t.Errorf("half power = %v", got)
	}
	// Clamping.
	if got := m.Power(2, -1); got != 150 {
		t.Errorf("clamped power = %v", got)
	}
	if m.PeakWatts() != 170 {
		t.Errorf("PeakWatts = %v", m.PeakWatts())
	}
}

func TestEfficiencyOrdering(t *testing.T) {
	models := TableII()
	// In Figure 9's spirit, big machines deliver more capacity per watt
	// at peak than the small R210.
	r210 := models[0].EfficiencyAtPeak()
	dl585 := models[3].EfficiencyAtPeak()
	if dl585 <= r210 {
		t.Errorf("DL585 efficiency %v <= R210 %v", dl585, r210)
	}
	var zero Model
	if zero.EfficiencyAtPeak() != 0 {
		t.Error("zero model efficiency should be 0")
	}
}

func TestMachineTypeConversion(t *testing.T) {
	mt := TableII()[1].MachineType(2)
	if mt.ID != 2 || mt.Count != 1500 {
		t.Errorf("conversion = %+v", mt)
	}
	if mt.CPU != 0.25 || mt.Mem != 0.5 {
		t.Errorf("capacities = %v/%v, want 0.25/0.5", mt.CPU, mt.Mem)
	}
}

func TestTableIIScaled(t *testing.T) {
	models, machines := TableIIScaled(1000)
	if len(machines) != 4 || machines[0].ID != 1 || machines[3].ID != 4 {
		t.Errorf("machine IDs wrong: %+v", machines)
	}
	// 7000/1500/1000/500 over 1000, floored at one machine per model.
	for i, want := range []int{7, 1, 1, 1} {
		if models[i].Count != want || machines[i].Count != want {
			t.Errorf("model %d: count %d / %d, want %d", i, models[i].Count, machines[i].Count, want)
		}
	}
	full, _ := TableIIScaled(0)
	for i, m := range TableII() {
		if full[i] != m {
			t.Errorf("scale 0 changed model %d: %+v", i, full[i])
		}
	}
}

func TestCurvePoints(t *testing.T) {
	m := TableII()[0]
	pts := CurvePoints(m, 11)
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].CPUUtil != 0 || pts[10].CPUUtil != 1 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Watts <= pts[i-1].Watts {
			t.Errorf("power curve not increasing at %d", i)
		}
	}
	// Degenerate n.
	if got := CurvePoints(m, 1); len(got) != 2 {
		t.Errorf("n=1 points = %d, want 2", len(got))
	}
}

func TestPrices(t *testing.T) {
	if got := FlatPrice(0.07).At(12345); got != 0.07 {
		t.Errorf("flat price = %v", got)
	}
	p := DiurnalPrice{Base: 0.06, Amplitude: 0.02, PhaseHour: 0}
	// Mean over one day ~= base.
	sum := 0.0
	const n = 240
	for i := 0; i < n; i++ {
		sum += p.At(float64(i) / n * trace.Day)
	}
	if mean := sum / n; math.Abs(mean-0.06) > 1e-3 {
		t.Errorf("diurnal mean = %v, want ~0.06", mean)
	}
	// The period is one day: the price repeats a day later and has moved
	// a quarter-day later (a mean check cannot see the period).
	for _, at := range []float64{0, trace.Hour, 17 * trace.Hour} {
		if a, b := p.At(at), p.At(at+trace.Day); math.Abs(a-b) > 1e-12 {
			t.Errorf("diurnal price at %vs = %v, a day later %v", at, a, b)
		}
		if a, b := p.At(at), p.At(at+6*trace.Hour); math.Abs(a-b) < 1e-3 {
			t.Errorf("diurnal price at %vs = %v, 6 h later %v: want a change", at, a, b)
		}
	}
	// Never negative even with large amplitude.
	pBig := DiurnalPrice{Base: 0.01, Amplitude: 0.5}
	for i := 0; i < n; i++ {
		if v := pBig.At(float64(i) / n * trace.Day); v < 0 {
			t.Fatalf("negative price %v", v)
		}
	}
}

func TestCost(t *testing.T) {
	// 1000 W for one hour at $0.10/kWh = $0.10.
	if got := Cost(1000, 3600, 0.10); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("Cost = %v, want 0.10", got)
	}
}

func TestSwitchCosts(t *testing.T) {
	models := []Model{{IdleWatts: 50}, {IdleWatts: 200}, {IdleWatts: 0}}
	got := SwitchCosts(models, 0.01)
	// The largest idle draw pays the full cost, the rest pro rata, in
	// exactly this operation order (plans are pinned bit-for-bit on it).
	for i, m := range models {
		if want := 0.01 * m.IdleWatts / 200; got[i] != want {
			t.Errorf("SwitchCosts[%d] = %v, want %v", i, got[i], want)
		}
	}
	// No idle draw anywhere: free switching, not 0/0.
	for i, c := range SwitchCosts([]Model{{}, {}}, 0.01) {
		if c != 0 {
			t.Errorf("zero-idle SwitchCosts[%d] = %v, want 0", i, c)
		}
	}
}
