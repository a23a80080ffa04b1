package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// procStatusMB reads one "Key:   value kB" line of /proc/self/status in MB; 0
// where the file or the key does not exist (non-Linux hosts).
func procStatusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 { return procStatusMB("VmHWM") }

// hostInfo describes where a result was measured; every result file carries
// it so two sets of runs are only compared knowingly across hosts.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func readHostInfo() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					h.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
	}
	return h
}
