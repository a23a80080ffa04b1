//go:build !unix

package main

import "time"

// cpuTime is unavailable off unix; proc.cpu_util then reads 0.
func cpuTime() time.Duration { return 0 }
