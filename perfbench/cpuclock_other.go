//go:build !linux

package main

import "time"

// cpuTime is the process's user+sys CPU time so far (getrusage, microsecond
// resolution), summed over its threads.
func cpuTime() time.Duration { return rusageCPUTime() }
