package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envStamp says where and on what a report was measured. A number without
// it cannot be compared with another.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpuModel"`
	LoadStart  float64 `json:"load1Start"`
	LoadEnd    float64 `json:"load1End"`
	// Noisy flags a run whose 1-minute load average exceeded nproc at
	// either end: other work competed for the cores. The run is reported,
	// not failed.
	Noisy    bool   `json:"noisy"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    string `json:"scale"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Passes   int    `json:"passes"`
	Ops      int    `json:"operations"`
}

func newEnvStamp(workload string, seed int64, seconds int, traced bool) *envStamp {
	return &envStamp{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		LoadStart:  loadAverage(),
		Workload:   workload,
		Seed:       seed,
		Scale:      dataScale,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// finish records what is only known when the run ends.
func (e *envStamp) finish(passes, ops int) {
	e.Passes, e.Ops = passes, ops
	e.LoadEnd = loadAverage()
	e.Noisy = e.LoadStart > float64(e.NProc) || e.LoadEnd > float64(e.NProc)
}

func (e *envStamp) String() string {
	noisy := ""
	if e.Noisy {
		noisy = "  NOISY (load average above nproc)"
	}
	return fmt.Sprintf("commit %s  %s  GOMAXPROCS=%d nproc=%d  cpu %q\nload1 %.2f → %.2f%s  workload %s  seed %d  scale %s  traced=%t  passes=%d operations=%d",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel, e.LoadStart, e.LoadEnd, noisy,
		e.Workload, e.Seed, e.Scale, e.Traced, e.Passes, e.Ops)
}

// gitCommit names the commit under test; a checkout that is not a git
// repository (the driver's) is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// loadAverage is the 1-minute load average, 0 where /proc has none.
func loadAverage() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	if _, err := fmt.Sscan(string(raw), &l); err != nil {
		return 0
	}
	return l
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
