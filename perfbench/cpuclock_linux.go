package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID of <time.h>.
const clockProcessCPUTimeID = 2

// cpuTime is the process's CPU time so far, summed over its threads, with
// nanosecond resolution. It covers the pipeline, the in-process load
// generator and the GC. The kernel does not advance it while the
// hypervisor has stolen the CPU.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return rusageCPUTime()
	}
	return time.Duration(ts.Nano())
}
