// Package strom is a deterministic, cycle-calibrated simulation of StRoM
// — the smart RoCE v2 NIC of Sidler et al., "StRoM: Smart Remote Memory"
// (EuroSys 2020) — together with the paper's four example kernels, its
// baselines, and a benchmark harness that regenerates every table and
// figure of the paper's evaluation.
//
// A StRoM NIC places user-programmable kernels on the data path between
// the RoCE network stack and the DMA engine. Kernels extend one-sided
// RDMA with RPC semantics (a remote GET in a single network round trip,
// without the remote CPU) and process RDMA streams as a bump-in-the-wire
// (partitioning, checksumming, cardinality estimation at line rate).
//
// # Quick start
//
//	cl := strom.NewCluster(1)
//	a, _ := cl.AddMachine("client", strom.Profile10G())
//	b, _ := cl.AddMachine("server", strom.Profile10G())
//	qp, _ := cl.ConnectDirect(a, b, strom.Cable10G())
//	bufA, _ := a.AllocBuffer(1 << 20)
//	bufB, _ := b.AllocBuffer(1 << 20)
//	cl.Go("app", func(p *strom.Process) {
//	    a.Memory().WriteVirt(bufA.Base(), []byte("hello remote memory"))
//	    _ = qp.WriteSync(p, uint64(bufA.Base()), uint64(bufB.Base()), 19)
//	})
//	cl.Run()
//
// Everything data-plane is real: packets are serialized RoCE v2 frames
// with ICRCs, the traversal kernel chases real pointers in simulated host
// memory, CRC64s are computed, partitions land where the radix says.
// Only time is modelled, on a cost model calibrated to the paper (see
// DESIGN.md).
package strom

import (
	"strom/internal/core"
	"strom/internal/cpu"
	"strom/internal/fabric"
	"strom/internal/fpga"
	"strom/internal/hostmem"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Version identifies the library release.
const Version = "1.0.0"

// Re-exported core types. The aliases let downstream code name these
// types without importing internal packages.
type (
	// Profile is a full machine configuration: NIC clocking and data
	// path, PCIe attachment, and host CPU model.
	Profile = core.Config
	// Kernel is a StRoM processing kernel (the Listing 1 interface).
	Kernel = core.Kernel
	// KernelContext is a kernel's window onto its NIC: DMA commands,
	// RDMA writes and pipeline-time scheduling.
	KernelContext = core.Context
	// NIC is one simulated machine: FPGA NIC plus host memory and CPU.
	NIC = core.NIC
	// Buffer is a pinned, NIC-registered host-memory allocation.
	Buffer = hostmem.Buffer
	// Addr is a virtual address in a machine's host memory.
	Addr = hostmem.Addr
	// Process is a simulated host thread (straight-line code with
	// simulated sleeps and polls).
	Process = sim.Process
	// Duration is simulated time (picosecond resolution).
	Duration = sim.Duration
	// Time is a simulated timestamp.
	Time = sim.Time
	// Cable describes a point-to-point Ethernet link.
	Cable = fabric.LinkConfig
	// Resources is an FPGA resource vector (LUTs, FFs, BRAMs).
	Resources = fpga.Resources
	// Identity is a NIC's network identity (MAC + IPv4).
	Identity = roce.Identity
	// HostCPU is the host processor cost model (polling, software
	// baselines, doorbell rate).
	HostCPU = cpu.Model
)

// Common durations, re-exported for host code.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Profile10G returns the paper's 10 G testbed machine (§6.1): Virtex-7
// class NIC, 156.25 MHz / 8 B data path, PCIe Gen3 x8.
func Profile10G() Profile { return core.Profile10G() }

// Profile100G returns the paper's 100 G machine (§7): UltraScale+ class,
// 322 MHz / 64 B data path, PCIe Gen3 x16.
func Profile100G() Profile { return core.Profile100G() }

// Cable10G returns a 10 Gbit/s direct-attach cable.
func Cable10G() Cable { return fabric.DirectCable10G() }

// Cable100G returns a 100 Gbit/s direct-attach cable.
func Cable100G() Cable { return fabric.DirectCable100G() }
