package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// environment is the header every run prints before its result, so a
// number can be traced to the machine and code that produced it.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

// readEnvironment gathers the header. A build outside a git checkout
// has no VCS stamp and reports the revision as "unknown".
func readEnvironment() environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
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

// now reads the wall clock. Every measurement in the benchmark goes
// through it, so the one allowance below covers them all.
func now() time.Time {
	//qarv:allow nondeterminism a benchmark measures wall-clock time by definition
	return time.Now()
}

// since is the wall-clock time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// usage is a getrusage snapshot of the whole process.
type usage struct {
	cpu     time.Duration // user + system
	maxRSSB int64         // peak resident set, bytes
}

// readUsage snapshots the process's CPU time and peak RSS.
func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, maxRSSB: int64(ru.Maxrss) * 1024} // Linux reports KiB
}
