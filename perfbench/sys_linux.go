//go:build linux

package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinPacer locks the calling goroutine to its thread and shrinks that
// thread's timer slack to 1 ns, so sleepUntil wakes within microseconds
// of the due time instead of the kernel's default 50 µs slack. The
// returned function releases the thread.
func pinPacer() func() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only widens lateness, which is measured
	return runtime.UnlockOSThread
}

// sleepUntil blocks the thread in nanosleep(2) until t. Go's runtime
// timers round sub-millisecond sleeps up to about a millisecond when the
// process is otherwise idle, which an open loop would count as latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
	}
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
