package fpga

import (
	"strings"
	"testing"
)

func TestTable3Calibration10G(t *testing.T) {
	// Paper, Table 3: 10 G on VCU118 = 92K LUTs (7.8%), 181 BRAM (8.4%),
	// 115K FF (4.8%).
	r := NICUsage(NICParams{DataPathBytes: 8, NumQPs: 500})
	if r.LUTs < 90000 || r.LUTs > 94000 {
		t.Errorf("LUTs = %d, want ~92K", r.LUTs)
	}
	if r.BRAMs < 175 || r.BRAMs > 187 {
		t.Errorf("BRAMs = %d, want ~181", r.BRAMs)
	}
	if r.FFs < 112000 || r.FFs > 118000 {
		t.Errorf("FFs = %d, want ~115K", r.FFs)
	}
	lut, ff, bram := XCVU9P().Percent(r)
	if lut < 7.4 || lut > 8.2 {
		t.Errorf("LUT%% = %.1f, want ~7.8", lut)
	}
	if bram < 8.0 || bram > 8.8 {
		t.Errorf("BRAM%% = %.1f, want ~8.4", bram)
	}
	if ff < 4.4 || ff > 5.2 {
		t.Errorf("FF%% = %.1f, want ~4.8", ff)
	}
}

func TestTable3Calibration100G(t *testing.T) {
	// Paper, Table 3: 100 G = 122K LUTs (10.3%), 402 BRAM (18.6%), 214K
	// FF (9.1%).
	r := NICUsage(NICParams{DataPathBytes: 64, NumQPs: 500})
	if r.LUTs < 119000 || r.LUTs > 125000 {
		t.Errorf("LUTs = %d, want ~122K", r.LUTs)
	}
	if r.BRAMs < 392 || r.BRAMs > 412 {
		t.Errorf("BRAMs = %d, want ~402", r.BRAMs)
	}
	if r.FFs < 209000 || r.FFs > 219000 {
		t.Errorf("FFs = %d, want ~214K", r.FFs)
	}
}

func TestScalingRatios(t *testing.T) {
	// §7.1: going 10 G -> 100 G doubles memory and registers while logic
	// grows ~32%.
	r10 := NICUsage(NICParams{DataPathBytes: 8, NumQPs: 500})
	r100 := NICUsage(NICParams{DataPathBytes: 64, NumQPs: 500})
	if ratio := float64(r100.LUTs) / float64(r10.LUTs); ratio < 1.25 || ratio > 1.4 {
		t.Errorf("logic growth = %.2f, want ~1.32", ratio)
	}
	if ratio := float64(r100.FFs) / float64(r10.FFs); ratio < 1.7 || ratio > 2.1 {
		t.Errorf("register growth = %.2f, want ~1.9", ratio)
	}
	if ratio := float64(r100.BRAMs) / float64(r10.BRAMs); ratio < 1.9 || ratio > 2.4 {
		t.Errorf("BRAM growth = %.2f, want ~2.2", ratio)
	}
}

func TestVirtex7QPSweep(t *testing.T) {
	// §6.1: on the Virtex-7, logic stays within 1% when going from 500 to
	// 16,000 QPs, while on-chip memory roughly doubles (9% -> 20%).
	dev := Virtex7_690T()
	r500 := NICUsage(NICParams{DataPathBytes: 8, NumQPs: 500})
	r16k := NICUsage(NICParams{DataPathBytes: 8, NumQPs: 16000})
	lutGrow := 100 * float64(r16k.LUTs-r500.LUTs) / float64(dev.LUTs)
	if lutGrow > 1.1 {
		t.Errorf("logic grew %.2f%% of device, want within ~1%%", lutGrow)
	}
	_, _, b500 := dev.Percent(r500)
	_, _, b16k := dev.Percent(r16k)
	if b16k-b500 < 8 || b16k-b500 > 14 {
		t.Errorf("BRAM%% grew from %.1f to %.1f, want ~+11 points", b500, b16k)
	}
}

func TestMostOfDeviceFreeForKernels(t *testing.T) {
	// "allowing the deployment of multiple StRoM kernels" (§6.1): the NIC
	// must leave the majority of the device free.
	for _, p := range []NICParams{
		{DataPathBytes: 8, NumQPs: 500},
		{DataPathBytes: 64, NumQPs: 500},
	} {
		dev := XCVU9P()
		r := NICUsage(p)
		lut, _, _ := dev.Percent(r)
		if lut > 30 {
			t.Errorf("width %d: NIC uses %.1f%% of logic", p.DataPathBytes, lut)
		}
		if !dev.Fits(r) {
			t.Errorf("width %d: NIC does not fit device", p.DataPathBytes)
		}
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	for _, p := range []NICParams{
		{DataPathBytes: 8, NumQPs: 500},
		{DataPathBytes: 64, NumQPs: 16000},
	} {
		total := NICUsage(p)
		var sum Resources
		for _, m := range Breakdown(p) {
			if m.Usage.LUTs < 0 || m.Usage.FFs < 0 || m.Usage.BRAMs < 0 {
				t.Errorf("module %s has negative usage", m.Name)
			}
			sum = sum.Add(m.Usage)
		}
		if sum != total {
			t.Errorf("breakdown sum %+v != total %+v", sum, total)
		}
	}
}

func TestBreakdownTLBAndQPDominateMemory(t *testing.T) {
	// "Most of it is allocated to the TLB and the state-keeping data
	// structures in the RoCE stack" (§6.1).
	mods := Breakdown(NICParams{DataPathBytes: 8, NumQPs: 16000})
	var tlbQP, total int
	for _, m := range mods {
		total += m.Usage.BRAMs
		if strings.Contains(m.Name, "TLB") || strings.Contains(m.Name, "State tables") {
			tlbQP += m.Usage.BRAMs
		}
	}
	if tlbQP*2 < total {
		t.Errorf("TLB+state tables hold %d of %d BRAMs, want majority", tlbQP, total)
	}
}

func TestClockConfigLineRate(t *testing.T) {
	c10 := ClockConfig{FrequencyMHz: 156.25, DataPathBytes: 8}
	if got := c10.LineRateGbps(); got != 10 {
		t.Errorf("10G internal rate = %v", got)
	}
	c100 := ClockConfig{FrequencyMHz: 322, DataPathBytes: 64}
	if got := c100.LineRateGbps(); got < 100 {
		t.Errorf("100G internal rate = %v, must exceed 100", got)
	}
	// §4.1: 8 B wide at 156.25 MHz spans 10-80 Gbit/s as width scales.
	c80 := ClockConfig{FrequencyMHz: 156.25, DataPathBytes: 64}
	if got := c80.LineRateGbps(); got != 80 {
		t.Errorf("64B@156.25 = %v, want 80", got)
	}
}

func TestTable3Rendering(t *testing.T) {
	out := Table3()
	for _, want := range []string{"10 G", "100 G", "LUTs", "BRAMs", "FFs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestDeviceFits(t *testing.T) {
	d := Virtex7_690T()
	if !d.Fits(Resources{1, 1, 1}) {
		t.Error("tiny usage should fit")
	}
	if d.Fits(Resources{LUTs: d.LUTs + 1}) {
		t.Error("oversized usage should not fit")
	}
}
