//go:build !linux

package main

import "time"

// pinPacer is a no-op off Linux; sleepUntil falls back to runtime timers.
func pinPacer() func() { return func() {} }

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// processCPU is unavailable off Linux; parallel efficiency then reads 0.
func processCPU() time.Duration { return 0 }

func cpuModel() string { return "unknown" }
