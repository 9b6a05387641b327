package main

import (
	"runtime"
	"syscall"
	"time"
)

// lockPacer dedicates the calling goroutine's thread to pacing and asks
// the kernel for 1ns timer slack on it. The goroutine must not unlock: the
// thread, with its changed slack, then exits along with it.
func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks until t with a nanosleep on the pacing thread. The Go
// timer rounds sub-millisecond sleeps up to about 1ms when the process is
// idle, which would make the generator, not the server, set the latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
