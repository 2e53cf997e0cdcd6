package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"productsort/internal/schedule"
)

// hostHeader names the machine and the build a BENCH_*.json artifact
// was measured with; every timed artifact carries one, so two reports
// can be compared only when their headers agree.
type hostHeader struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Kernel is the dispatched vector body (schedule.KernelName): it
	// picks the run kernel's body, the merge kernel's and the staged
	// pass's.
	Kernel string `json:"kernel"`
	// Revision and Modified are the VCS stamp of the binary
	// (debug.ReadBuildInfo: vcs.revision, vcs.modified); Revision is
	// empty when the build carries none, as under a plain `go run`
	// (the Makefile's bench targets pass -buildvcs=true in a git work
	// tree).
	Revision string `json:"revision"`
	Modified bool   `json:"modified"`
}

// hostInfo describes this machine and binary; CPU is empty where
// /proc/cpuinfo cannot be read.
func hostInfo() hostHeader {
	h := hostHeader{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     schedule.KernelName(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}
