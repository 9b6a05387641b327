//go:build !linux

package main

import "time"

func lockPacer() {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
