package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread until t. The runtime's timers
// round sub-millisecond sleeps up to a millisecond when the process is
// otherwise idle, and a thread's default 50 µs timer slack delays
// nanosleep by about as much, so the open-loop schedule is held with
// nanosleep on a thread whose slack is first set to the minimum.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
