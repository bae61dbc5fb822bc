package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp identifies the machine and toolchain a result was recorded
// on, so a number is never read without its hardware.
type hostStamp struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func readHostStamp() hostStamp {
	return hostStamp{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		LoadAvg1:   loadAvg1(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git in the working directory without
// starting a process; the driver's checkout is not a git repository, and
// the stamp then says "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return short(ref)
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if data, err := os.ReadFile(".git/" + ref); err == nil {
		return short(strings.TrimSpace(string(data)))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if strings.HasSuffix(line, " "+ref) {
				return short(strings.Fields(line)[0])
			}
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// loadAvg1 returns the 1-minute load average, or -1 where /proc is absent.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuTime returns the process's user+system CPU time: every thread, so
// the garbage collector's work on the second core is charged too.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostWindow measures one window of host cost. begin forces a collection
// so garbage from set-up is not charged to the window.
type hostWindow struct {
	wall0   time.Time
	cpu0    time.Duration
	alloc0  uint64
	malloc0 uint64
}

type hostCost struct {
	WallS   float64
	CPUS    float64
	AllocMB float64
	LiveMB  float64
	Mallocs uint64
}

func beginWindow() hostWindow {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostWindow{wall0: time.Now(), cpu0: cpuTime(), alloc0: ms.TotalAlloc, malloc0: ms.Mallocs}
}

// end closes the window. LiveMB is not part of it: liveHeapMB forces
// collections, which the window's CPU time and profile must not hold.
func (w hostWindow) end() hostCost {
	cpu := cpuTime() - w.cpu0
	wall := time.Since(w.wall0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostCost{
		WallS:   wall.Seconds(),
		CPUS:    cpu.Seconds(),
		AllocMB: float64(ms.TotalAlloc-w.alloc0) / 1e6,
		Mallocs: ms.Mallocs - w.malloc0,
	}
}

// liveHeapMB is HeapAlloc after forced collections: what the run still
// references. Twice: the first collection only moves sync.Pool contents
// to their victim caches, the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
