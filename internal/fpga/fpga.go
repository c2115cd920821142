// Package fpga models the spatial side of StRoM: FPGA devices, clocking,
// and the resource usage of the NIC and its kernels. The model is
// calibrated to the paper's numbers — Table 3 (10 G vs 100 G on the
// VCU118) and §6.1 (24% logic on the Virtex-7; BRAM growing from 9% at
// 500 QPs to 20% at 16,000 QPs) — and reproduces the same scaling laws:
// logic and registers grow with data-path width, on-chip memory grows
// linearly with the number of queue pairs and with the TLB size.
package fpga

import (
	"fmt"
	"strings"
)

// Resources is an FPGA resource vector: lookup tables, flip-flop
// registers and 36 Kb block RAMs.
type Resources struct {
	LUTs  int
	FFs   int
	BRAMs int
}

// Add returns the component-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.LUTs + o.LUTs, r.FFs + o.FFs, r.BRAMs + o.BRAMs}
}

// Device describes an FPGA part.
type Device struct {
	Name        string
	LUTs        int
	FFs         int
	BRAMs       int
	MaxClockMHz float64
}

// Virtex7_690T is the Xilinx XC7VX690T on the Alpha Data ADM-PCIE-7V3
// (the 10 G prototype board, §6.1).
func Virtex7_690T() Device {
	return Device{Name: "XC7VX690T (ADM-PCIE-7V3)", LUTs: 433200, FFs: 866400, BRAMs: 1470, MaxClockMHz: 200}
}

// XCVU9P is the Xilinx UltraScale+ on the VCU118 (the 100 G board, §7).
func XCVU9P() Device {
	return Device{Name: "XCVU9P (VCU118)", LUTs: 1182240, FFs: 2364480, BRAMs: 2160, MaxClockMHz: 450}
}

// Fits reports whether the usage fits the device.
func (d Device) Fits(r Resources) bool {
	return r.LUTs <= d.LUTs && r.FFs <= d.FFs && r.BRAMs <= d.BRAMs
}

// Percent formats the usage as percentages of the device.
func (d Device) Percent(r Resources) (lut, ff, bram float64) {
	return 100 * float64(r.LUTs) / float64(d.LUTs),
		100 * float64(r.FFs) / float64(d.FFs),
		100 * float64(r.BRAMs) / float64(d.BRAMs)
}

// NICParams are the spatial parameters of a StRoM NIC build.
type NICParams struct {
	DataPathBytes int // 8 (10 G) … 64 (100 G)
	NumQPs        int
	TLBEntries    int
}

// Calibration constants, solved from Table 3 (two builds at 500 QPs on
// the VCU118) and the §6.1 QP sweep on the Virtex-7.
const (
	lutBase, lutPerWidthByte, lutPerQP = 87714, 535.0, 0.28
	ffBase, ffPerWidthByte             = 100857, 1767.9
	bramBase, bramPerWidthByte         = 122.2, 3.946
	bramPerQP                          = 0.010452
	bramPerTLBEntry                    = 48.0 / (36 * 1024) // 48-bit PAs in 36 Kb BRAMs
)

// NICUsage estimates the resources of the full NIC: RoCE stack, DMA
// engine, TLB, Ethernet interface and Controller, before any kernels.
func NICUsage(p NICParams) Resources {
	if p.TLBEntries == 0 {
		p.TLBEntries = 16384
	}
	w := float64(p.DataPathBytes)
	q := float64(p.NumQPs)
	return Resources{
		LUTs:  int(lutBase + lutPerWidthByte*w + lutPerQP*q),
		FFs:   int(ffBase + ffPerWidthByte*w),
		BRAMs: int(bramBase + bramPerWidthByte*w + bramPerQP*q + bramPerTLBEntry*float64(p.TLBEntries) + 0.5),
	}
}

// Breakdown itemises the NIC usage by module, summing to NICUsage. The
// split follows the paper's description: most logic sits in the RoCE
// processing pipelines (width-dependent), most memory in the TLB and the
// per-QP state tables.
func Breakdown(p NICParams) []ModuleUsage {
	if p.TLBEntries == 0 {
		p.TLBEntries = 16384
	}
	total := NICUsage(p)
	tlbBRAM := int(bramPerTLBEntry*float64(p.TLBEntries) + 0.5)
	qpBRAM := int(bramPerQP * float64(p.NumQPs))
	restBRAM := total.BRAMs - tlbBRAM - qpBRAM
	mods := []ModuleUsage{
		{"RoCE RX/TX pipelines", Resources{total.LUTs * 45 / 100, total.FFs * 45 / 100, restBRAM * 35 / 100}},
		{"State tables (State/MSN/Multi-Queue)", Resources{total.LUTs * 10 / 100, total.FFs * 10 / 100, qpBRAM}},
		{"DMA engine (XDMA + bypass)", Resources{total.LUTs * 20 / 100, total.FFs * 20 / 100, restBRAM * 30 / 100}},
		{"TLB", Resources{total.LUTs * 5 / 100, total.FFs * 5 / 100, tlbBRAM}},
		{"Ethernet MAC + ARP", Resources{total.LUTs * 15 / 100, total.FFs * 15 / 100, restBRAM * 25 / 100}},
	}
	// Controller absorbs the rounding remainder so the sum is exact.
	used := Resources{}
	for _, m := range mods {
		used = used.Add(m.Usage)
	}
	mods = append(mods, ModuleUsage{"Controller", Resources{
		total.LUTs - used.LUTs, total.FFs - used.FFs, total.BRAMs - used.BRAMs,
	}})
	return mods
}

// ModuleUsage is one row of a resource breakdown.
type ModuleUsage struct {
	Name  string
	Usage Resources
}

// Table3 reproduces the paper's Table 3: the 10 G and 100 G builds for
// 500 QPs on the VCU118, as percentages of the device.
func Table3() string {
	dev := XCVU9P()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Resource Usage of StRoM for 500 QPs on VCU118\n")
	fmt.Fprintf(&b, "%-6s %14s %22s %16s\n", "", "Logic [LUTs]", "On-chip mem [BRAMs]", "Register [FFs]")
	for _, row := range []struct {
		name  string
		width int
	}{{"10 G", 8}, {"100 G", 64}} {
		r := NICUsage(NICParams{DataPathBytes: row.width, NumQPs: 500})
		lut, ff, bram := dev.Percent(r)
		fmt.Fprintf(&b, "%-6s %6dK %5.1f%% %12d %8.1f%% %8dK %5.1f%%\n",
			row.name, r.LUTs/1000, lut, r.BRAMs, bram, r.FFs/1000, ff)
	}
	return b.String()
}
