package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the CPU time all threads of this process have consumed.
// The kernel does not count time the hypervisor gave to other guests, so
// unlike wall time it does not grow when the host's CPUs are busy.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
