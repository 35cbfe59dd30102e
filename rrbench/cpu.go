package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end timings are CPU time, not wall time. On a virtual
// machine that shares its host, wall time also counts the time the host
// runs other guests on this one's CPUs (steal): on the reference host
// steal came and went over minutes and, at 10–20% of the CPUs, stretched
// a replay's wall time by up to 80%. The kernel charges a thread only for
// the time it actually ran, so CPU time leaves steal out. Serve-live's
// request latencies stay wall clock, since waiting is what they measure,
// and so are per-layer figures.

// Linux clock ids that package syscall does not name.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock. Unlike getrusage, which lags a running
// thread by up to a scheduler tick, these clocks bring the caller's own
// count up to date first.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // only fails for an invalid clock id
	}
	return time.Duration(ts.Nano())
}

// procCPU is the CPU time every thread of this process has used so far.
func procCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used so far; the
// caller holds runtime.LockOSThread between the readings it compares.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
