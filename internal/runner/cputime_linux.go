//go:build linux

package runner

import "syscall"

// cpuSeconds returns the CPU time (user + system) this process has consumed
// so far. The scale benchmark times its samples on deltas of this clock
// rather than wall time: on a shared host, involuntary preemption and
// co-tenant steal show up in wall clock as multi-percent swings, but are
// invisible to CPU-time accounting.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)*1e-6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)*1e-6
}
