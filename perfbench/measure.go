package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo records the machine a run measured, printed with every result.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func readHost() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" off
// Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the guest's aggregate CPU time counters from /proc/stat:
// total ticks over all CPUs and the ticks stolen by the hypervisor. Both
// are 0 off Linux.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of the guest's CPU time the hypervisor stole
// between two cpuTicks readings.
func stealShare(total0, steal0, total1, steal1 uint64) float64 {
	return ratio(float64(steal1-steal0), float64(total1-total0))
}

// rusageCPUTime is the process's user+sys CPU time so far (getrusage).
func rusageCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMiB forces two collections, so sync.Pool victims are freed too, and
// returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sweepChunk is how many serial operations a latency chunk times between
// two collections: few enough that their garbage stays under the next GC
// trigger even for the largest documents.
const sweepChunk = 20

// timedChunks runs op(i) for i in [0, n) one at a time on a single P
// (GOMAXPROCS 1) with the collector paused, and collects between chunks of
// sweepChunk operations outside the timing. Timed on the process CPU
// clock, each operation then costs exactly its own work: no collection, no
// idle P spinning while a goroutine waits to be woken, no stolen time. The
// workload's GC cost is in cpu_ms_per_doc, measured with the collector on.
func timedChunks(n int, op func(i int)) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	for lo := 0; lo < n; lo += sweepChunk {
		runtime.GC()
		old := debug.SetGCPercent(-1)
		for i := lo; i < min(lo+sweepChunk, n); i++ {
			op(i)
		}
		debug.SetGCPercent(old)
	}
}

// procCounters are the runtime/metrics counters the process.* metrics are
// deltas of.
type procCounters struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procCounters {
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	var c procCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = s[3].Value.Float64()
	}
	return c
}

func (c procCounters) sub(o procCounters) procCounters {
	return procCounters{
		allocObjects: c.allocObjects - o.allocObjects,
		allocBytes:   c.allocBytes - o.allocBytes,
		gcCPU:        c.gcCPU - o.gcCPU,
		totalCPU:     c.totalCPU - o.totalCPU,
	}
}

func (c procCounters) add(o procCounters) procCounters {
	return procCounters{
		allocObjects: c.allocObjects + o.allocObjects,
		allocBytes:   c.allocBytes + o.allocBytes,
		gcCPU:        c.gcCPU + o.gcCPU,
		totalCPU:     c.totalCPU + o.totalCPU,
	}
}

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles is Python's statistics.quantiles(values, n=4) with its default
// "exclusive" method, the rule the steadiness check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
