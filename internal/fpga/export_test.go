package fpga

// ClockConfig captures the frequency/width pair of a build (§3.5, §7).
type ClockConfig struct {
	FrequencyMHz  float64
	DataPathBytes int
}

// LineRateGbps returns the internal processing bandwidth of the build.
func (c ClockConfig) LineRateGbps() float64 {
	return c.FrequencyMHz * float64(c.DataPathBytes) * 8 / 1000
}
