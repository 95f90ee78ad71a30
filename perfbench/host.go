package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far, garbage
// collection and every other goroutine included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking from the
// current resident size, so peakRSSMB then reports the peak of what
// follows alone. It reports whether the kernel allowed the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size in MiB since start
// or since the last resetPeakRSS (VmHWM in /proc/self/status).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// procStat holds the host-wide steal and iowait tick counters from
// /proc/stat: time other guests took from this host's CPUs, and time
// they idled waiting for I/O. A run whose timed phase saw a large steal
// delta is an outlier of the host, not a regression of the program.
type procStat struct{ steal, iowait, total uint64 }

func readProcStat() procStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return procStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 9 || fs[0] != "cpu" {
			continue
		}
		var ps procStat
		for i, v := range fs[1:] {
			n, _ := strconv.ParseUint(v, 10, 64)
			ps.total += n
			switch i {
			case 4:
				ps.iowait = n
			case 7:
				ps.steal = n
			}
		}
		return ps
	}
	return procStat{}
}

// share returns the steal and iowait deltas from a to b as shares of all
// CPU ticks in between.
func (a procStat) share(b procStat) (steal, iowait float64) {
	d := float64(b.total - a.total)
	if d <= 0 {
		return 0, 0
	}
	return float64(b.steal-a.steal) / d, float64(b.iowait-a.iowait) / d
}

// diagnostics is the run's provenance record: enough to reproduce the
// run and to tell a noisy host apart from a slower program.
func diagnostics(seed uint64, ps0, ps1 procStat) map[string]any {
	steal, iowait := ps0.share(ps1)
	return map[string]any{
		"host_cpus":    runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_rev":      buildRev(),
		"seed":         seed,
		"steal_share":  steal,
		"iowait_share": iowait,
	}
}
