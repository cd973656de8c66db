package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// hostCPU reads the machine-wide CPU time counters from the first line of
// /proc/stat: user, nice, system, idle, iowait, irq, softirq, steal (in
// clock ticks). It returns nil where they are unavailable.
func hostCPU() []uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		v, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return nil
		}
		out[i] = v
	}
	return out
}

// hostShares describes how the machine's CPU time was spent between two
// hostCPU readings. Steal is time a virtual machine's CPUs were runnable
// but held by the hypervisor: it inflates every wall-clock metric and no
// CPU-time metric, so a run with high steal explains wall-clock outliers.
func hostShares(a, b []uint64) string {
	if a == nil || b == nil {
		return "host cpu: /proc/stat unavailable"
	}
	d := make([]float64, len(a))
	total := 0.0
	for i := range a {
		d[i] = float64(b[i] - a[i])
		total += d[i]
	}
	if total == 0 {
		return "host cpu: no ticks elapsed"
	}
	pct := func(i int) float64 { return 100 * d[i] / total }
	return fmt.Sprintf("host cpu: user %.1f%% system %.1f%% idle %.1f%% iowait %.1f%% steal %.1f%%",
		pct(0)+pct(1), pct(2)+pct(5)+pct(6), pct(3), pct(4), pct(7))
}
