// Package device defines the hardware specifications of the platforms the
// paper characterizes: the NVIDIA TX1-class mobile GPU and the Xilinx
// Virtex-7 VX690T-class FPGA used in the In-situ AI node, and the Titan
// X-class Cloud training GPU. The constants are public datasheet values;
// the analytical simulators (gpusim, fpgasim, cloud) consume these specs
// exactly where the paper's equations reference maxOPS, MBW, DSP counts
// and so on.
package device

// GPUSpec describes a CUDA-style GPU for the analytical model of
// eqs. (2)–(8).
type GPUSpec struct {
	Name      string
	FreqHz    float64 // core clock
	CUDACores int     // nCUDACore in eq. (7)
	MaxBlocks int     // maxBlocks in eq. (3): thread blocks resident at once
	// MemBandwidth is MBW in eq. (6), bytes/s.
	MemBandwidth float64
	// MemCapacity bounds the diagnosis batch via eq. (9), bytes.
	MemCapacity int64
	// PowerW is the board power while running AI tasks; IdlePowerW while
	// parked. Energy models use active power × busy time.
	PowerW     float64
	IdlePowerW float64
}

// MaxOPS returns the computational roof 2·Freq·nCUDACore of eq. (7) at
// full utilization, in ops/s (2 ops per fused multiply-add).
func (g GPUSpec) MaxOPS() float64 { return 2 * g.FreqHz * float64(g.CUDACores) }

// TX1 returns the NVIDIA Jetson TX1-class spec: 256 Maxwell cores at
// ~1 GHz (512 GFLOPS fp32), 25.6 GB/s LPDDR4, 4 GB shared memory, ~10 W
// under load.
func TX1() GPUSpec {
	return GPUSpec{
		Name:         "TX1",
		FreqHz:       0.998e9,
		CUDACores:    256,
		MaxBlocks:    32,
		MemBandwidth: 25.6e9,
		MemCapacity:  4 << 30,
		PowerW:       10,
		IdlePowerW:   1.5,
	}
}

// TitanX returns the (Maxwell) Titan X-class Cloud training GPU: 3072
// cores at ~1 GHz (6.1 TFLOPS fp32), 336 GB/s, 12 GB, 250 W.
func TitanX() GPUSpec {
	return GPUSpec{
		Name:         "TitanX",
		FreqHz:       1.0e9,
		CUDACores:    3072,
		MaxBlocks:    192,
		MemBandwidth: 336e9,
		MemCapacity:  12 << 30,
		PowerW:       250,
		IdlePowerW:   15,
	}
}

// FPGASpec describes an FPGA accelerator board for the models of
// eqs. (4), (10)–(14).
type FPGASpec struct {
	Name string
	// FreqHz is the design clock; eq. (11) divides cycle counts by it.
	FreqHz float64
	// DSPSlices is DSPtotal in eq. (10); one DSP implements one
	// multiply-add PE.
	DSPSlices int
	// MemBandwidth is off-chip DDR bandwidth, bytes/s.
	MemBandwidth float64
	// PowerW is board power under load.
	PowerW     float64
	IdlePowerW float64
}

// VX690T returns the Xilinx Virtex-7 VX690T-class spec: 3600 DSP slices,
// a 200 MHz design clock, DDR3 at ~12.8 GB/s, ~25 W.
func VX690T() FPGASpec {
	return FPGASpec{
		Name:         "VX690T",
		FreqHz:       200e6,
		DSPSlices:    3600,
		MemBandwidth: 12.8e9,
		PowerW:       25,
		IdlePowerW:   5,
	}
}
