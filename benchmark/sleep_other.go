//go:build !linux

package main

import "time"

// sleepUntil blocks until t, as precisely as the runtime's timers allow.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
